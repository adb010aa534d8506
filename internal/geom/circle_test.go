package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCircumcircle(t *testing.T) {
	c, ok := Circumcircle(Pt(0, 0), Pt(4, 0), Pt(2, 2))
	if !ok {
		t.Fatal("circumcircle of triangle failed")
	}
	for _, p := range []Point{Pt(0, 0), Pt(4, 0), Pt(2, 2)} {
		if !c.OnBoundary(p) {
			t.Errorf("point %v not on circumcircle %v", p, c)
		}
	}
	if _, ok := Circumcircle(Pt(0, 0), Pt(1, 1), Pt(2, 2)); ok {
		t.Error("collinear circumcircle should fail")
	}
}

func TestCirclePointAtAngleOf(t *testing.T) {
	c := Circle{Center: Pt(10, 10), R: 5}
	p := c.PointAt(0)
	if !p.Eq(Pt(15, 10)) {
		t.Errorf("PointAt(0) = %v", p)
	}
	if got := c.AngleOf(Pt(10, 15)); !almostEq(got, math.Pi/2) {
		t.Errorf("AngleOf = %v", got)
	}
	if !c.Contains(Pt(12, 10)) || c.Contains(Pt(16, 10)) {
		t.Error("Contains wrong")
	}
}

func TestArcThrough(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	arc := ArcThrough(a, b, 2)
	if !arc.At(0).Eq(a) || !arc.At(1).Eq(b) {
		t.Fatalf("arc endpoints wrong: %v %v", arc.At(0), arc.At(1))
	}
	// Sagitta: the arc's midpoint is h above the chord, on the left of
	// a→b for h > 0 (positive Y here).
	mid := arc.At(0.5)
	if !almostEq(mid.X, 5) || !almostEq(mid.Y, 2) {
		t.Errorf("arc midpoint = %v, want (5, 2)", mid)
	}
	if !almostEq(arc.Sagitta(), 2) {
		t.Errorf("Sagitta = %v", arc.Sagitta())
	}
	// Negative sagitta bulges the other way.
	neg := ArcThrough(a, b, -2)
	if m := neg.At(0.5); !almostEq(m.Y, -2) {
		t.Errorf("negative arc midpoint = %v", m)
	}
}

func TestArcStrictlyConvex(t *testing.T) {
	// Distinct points sampled on one arc must be in strictly convex
	// position — the property that makes arc landings corners.
	arc := ArcThrough(Pt(0, 0), Pt(100, 0), 6)
	var pts []Point
	for i := 0; i <= 20; i++ {
		pts = append(pts, arc.At(float64(i)/20))
	}
	if !StrictlyConvexPosition(pts) {
		t.Fatal("arc samples not strictly convex")
	}
	if !CompleteVisibilityNaive(pts, nil) {
		t.Fatal("arc samples not completely visible")
	}
}

func TestArcParamOf(t *testing.T) {
	arc := ArcThrough(Pt(0, 0), Pt(10, 0), 3)
	for _, tt := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p := arc.At(tt)
		if got := arc.ParamOf(p); !almostEq(got, tt) {
			t.Errorf("ParamOf(At(%v)) = %v", tt, got)
		}
	}
}

func TestArcThroughPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"coincident", func() { ArcThrough(Pt(1, 1), Pt(1, 1), 1) }},
		{"zero sagitta", func() { ArcThrough(Pt(0, 0), Pt(1, 0), 0) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.f()
		}()
	}
}

// Property: arc points stay on the arc's circle and on the bulge side.
func TestArcOnCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		a := randPt(rng)
		b := randPt(rng)
		if a.Dist(b) < 1 {
			continue
		}
		h := (rng.Float64()*0.3 + 0.01) * a.Dist(b)
		if rng.Intn(2) == 0 {
			h = -h
		}
		arc := ArcThrough(a, b, h)
		for _, tt := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			p := arc.At(tt)
			if !arc.Circle.OnBoundary(p) {
				t.Fatalf("arc point %v off its circle (trial %d)", p, trial)
			}
			side := Orient(a, b, p)
			wantSide := CCW
			if h < 0 {
				wantSide = CW
			}
			if side != wantSide {
				t.Fatalf("arc point %v on wrong side (trial %d, h=%v)", p, trial, h)
			}
		}
	}
}
