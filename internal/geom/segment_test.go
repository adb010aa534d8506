package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(3, 4))
	if s.Len() != 5 {
		t.Errorf("Len = %v", s.Len())
	}
	if !s.Mid().Eq(Pt(1.5, 2)) {
		t.Errorf("Mid = %v", s.Mid())
	}
	if !s.At(0).Eq(s.A) || !s.At(1).Eq(s.B) {
		t.Error("At endpoints wrong")
	}
}

func TestClosestPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		p     Point
		wantP Point
		wantT float64
	}{
		{Pt(5, 3), Pt(5, 0), 0.5},
		{Pt(-4, 2), Pt(0, 0), 0},   // clamped to A
		{Pt(14, -2), Pt(10, 0), 1}, // clamped to B
	}
	for _, c := range cases {
		q, tt := s.ClosestPoint(c.p)
		if !q.Eq(c.wantP) || !almostEq(tt, c.wantT) {
			t.Errorf("ClosestPoint(%v) = %v,%v want %v,%v", c.p, q, tt, c.wantP, c.wantT)
		}
	}
	// Degenerate segment.
	d := Seg(Pt(2, 2), Pt(2, 2))
	q, tt := d.ClosestPoint(Pt(5, 5))
	if !q.Eq(Pt(2, 2)) || tt != 0 {
		t.Errorf("degenerate ClosestPoint = %v,%v", q, tt)
	}
}

func TestSegmentIntersect(t *testing.T) {
	cases := []struct {
		name string
		s, u Segment
		want IntersectKind
	}{
		{"proper X", Seg(Pt(0, 0), Pt(10, 10)), Seg(Pt(0, 10), Pt(10, 0)), ProperCrossing},
		{"disjoint parallel", Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(0, 1), Pt(10, 1)), NoIntersection},
		{"disjoint skew", Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(5, 5), Pt(6, 9)), NoIntersection},
		{"shared endpoint", Seg(Pt(0, 0), Pt(5, 5)), Seg(Pt(5, 5), Pt(9, 0)), Touching},
		{"T touch", Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0), Pt(5, 7)), Touching},
		{"collinear overlap", Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(5, 0), Pt(15, 0)), Overlapping},
		{"collinear disjoint", Seg(Pt(0, 0), Pt(4, 0)), Seg(Pt(5, 0), Pt(9, 0)), NoIntersection},
		{"collinear endpoint touch", Seg(Pt(0, 0), Pt(5, 0)), Seg(Pt(5, 0), Pt(9, 0)), Touching},
		{"containment overlap", Seg(Pt(0, 0), Pt(10, 0)), Seg(Pt(2, 0), Pt(8, 0)), Overlapping},
	}
	for _, c := range cases {
		got, _ := c.s.Intersect(c.u)
		if got != c.want {
			t.Errorf("%s: Intersect = %v, want %v", c.name, got, c.want)
		}
		// Symmetric.
		got2, _ := c.u.Intersect(c.s)
		if got2 != c.want {
			t.Errorf("%s (swapped): Intersect = %v, want %v", c.name, got2, c.want)
		}
	}
}

func TestProperCrossingPoint(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 10))
	u := Seg(Pt(0, 10), Pt(10, 0))
	kind, p := s.Intersect(u)
	if kind != ProperCrossing {
		t.Fatalf("kind = %v", kind)
	}
	if !p.Eq(Pt(5, 5)) {
		t.Errorf("crossing point = %v", p)
	}
}

func TestLineIntersection(t *testing.T) {
	p, ok := lineLineIntersection(Pt(0, 0), Pt(1, 0), Pt(5, -3), Pt(5, 9))
	if !ok || !p.Eq(Pt(5, 0)) {
		t.Errorf("lineLineIntersection = %v,%v", p, ok)
	}
	if _, ok := lineLineIntersection(Pt(0, 0), Pt(1, 0), Pt(0, 1), Pt(1, 1)); ok {
		t.Error("parallel lines reported as intersecting")
	}
}

// Property: a proper crossing point lies on both segments.
func TestCrossingPointOnBoth(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	found := 0
	for i := 0; i < 5000 && found < 500; i++ {
		s := Seg(randPt(rng), randPt(rng))
		u := Seg(randPt(rng), randPt(rng))
		kind, p := s.Intersect(u)
		if kind != ProperCrossing {
			continue
		}
		found++
		if s.Dist(p) > 1e-6 || u.Dist(p) > 1e-6 {
			t.Fatalf("crossing point %v not on both segments (%v, %v)", p, s.Dist(p), u.Dist(p))
		}
	}
	if found == 0 {
		t.Error("no proper crossings generated")
	}
}

// Property: a proper crossing is symmetric in the operands.
func TestProperlyCrossesSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		s := Seg(randPt(rng), randPt(rng))
		u := Seg(randPt(rng), randPt(rng))
		ks, _ := s.Intersect(u)
		ku, _ := u.Intersect(s)
		if (ks == ProperCrossing) != (ku == ProperCrossing) {
			t.Fatalf("asymmetric crossing verdict for %v vs %v", s, u)
		}
	}
}

func randPt(rng *rand.Rand) Point {
	return Pt(rng.Float64()*100, rng.Float64()*100)
}

func TestContainsInterior(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(10, 0))
	if !StrictlyBetween(s.A, s.B, Pt(5, 0)) {
		t.Error("interior point rejected")
	}
	if StrictlyBetween(s.A, s.B, Pt(0, 0)) || StrictlyBetween(s.A, s.B, Pt(10, 0)) {
		t.Error("endpoint accepted as interior")
	}
	if got := s.Dist(Pt(5, 2)); !almostEq(got, 2) {
		t.Errorf("Dist = %v", got)
	}
	_ = math.Pi
}
