package exact

import (
	"math"
	"math/rand"
	"testing"

	"luxvis/internal/geom"
)

func fp(x, y float64) geom.Point { return geom.Pt(x, y) }

func TestOrientSign(t *testing.T) {
	cases := []struct {
		a, b, c geom.Point
		want    int
	}{
		{fp(0, 0), fp(1, 0), fp(0, 1), 1},
		{fp(0, 0), fp(1, 0), fp(0, -1), -1},
		{fp(0, 0), fp(1, 0), fp(2, 0), 0},
		// A triple that float predicates would call collinear but is
		// exactly not: the offset is below geom.Eps but representable.
		{fp(0, 0), fp(1, 0), fp(0.5, 1e-12), 1},
		// Both products are subnormal: rounding gives the float
		// determinant the wrong sign while the relative bound rounds to
		// 0, so only the 2⁻⁹⁰⁰ floor on |detl|+|detr| sends it to
		// big.Rat.
		{fp(2.7155394673747004e-167, 0), fp(3.516745217890185e-151, 3.621323206225881e-143),
			fp(5.431078934749401e-167, 2.7962918782401673e-159), -1},
	}
	for _, c := range cases {
		if got := OrientSign(c.a, c.b, c.c); got != c.want {
			t.Errorf("OrientSign = %d, want %d", got, c.want)
		}
	}
}

func TestStrictlyBetweenExact(t *testing.T) {
	a, b := fp(0, 0), fp(10, 0)
	if !StrictlyBetween(a, b, fp(5, 0)) {
		t.Error("midpoint rejected")
	}
	if StrictlyBetween(a, b, fp(0, 0)) || StrictlyBetween(a, b, fp(10, 0)) {
		t.Error("endpoint accepted")
	}
	if StrictlyBetween(a, b, fp(5, 1e-15)) {
		t.Error("off-line point accepted (exactly off by 1e-15)")
	}
	// Vertical.
	va, vb := fp(0, 0), fp(0, 10)
	if !StrictlyBetween(va, vb, fp(0, 3)) {
		t.Error("vertical between rejected")
	}
}

func TestVisibleAndCV(t *testing.T) {
	line := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0)}
	cases := []struct {
		name  string
		pts   []geom.Point
		alive []bool
		want  bool
	}{
		{"blocked pair", line, []bool{true, false, true}, false},
		{"adjacent pair", line, []bool{true, true, false}, true},
		{"line", line, nil, false},
		{"triangle", []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 3)}, nil, true},
		{"duplicates", []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1)}, nil, false},
	}
	for _, tc := range cases {
		if got := CompleteVisibilityAmong(tc.pts, tc.alive); got != tc.want {
			t.Errorf("%s: CompleteVisibilityAmong = %v, want %v", tc.name, got, tc.want)
		}
		if got := bruteAmong(tc.pts, tc.alive); got != tc.want {
			t.Errorf("%s: brute reference = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSegmentsProperlyCross(t *testing.T) {
	if !SegmentsProperlyCross(fp(0, 0), fp(10, 10), fp(0, 10), fp(10, 0)) {
		t.Error("X crossing not detected")
	}
	if SegmentsProperlyCross(fp(0, 0), fp(5, 5), fp(5, 5), fp(9, 0)) {
		t.Error("shared endpoint counted as proper crossing")
	}
	if SegmentsProperlyCross(fp(0, 0), fp(10, 0), fp(0, 1), fp(10, 1)) {
		t.Error("parallel segments counted as crossing")
	}
	if SegmentsProperlyCross(fp(0, 0), fp(10, 0), fp(2, 0), fp(8, 0)) {
		t.Error("collinear overlap counted as proper crossing")
	}
}

func TestSegmentsOverlap(t *testing.T) {
	if !SegmentsOverlap(fp(0, 0), fp(10, 0), fp(5, 0), fp(15, 0)) {
		t.Error("overlap not detected")
	}
	if SegmentsOverlap(fp(0, 0), fp(5, 0), fp(5, 0), fp(9, 0)) {
		t.Error("single shared point counted as overlap")
	}
	if SegmentsOverlap(fp(0, 0), fp(10, 0), fp(0, 1), fp(10, 1)) {
		t.Error("parallel non-collinear counted as overlap")
	}
	if !SegmentsOverlap(fp(0, 0), fp(0, 10), fp(0, 5), fp(0, 15)) {
		t.Error("vertical overlap not detected")
	}
}

// Hybrid checker agrees with the full exact predicate on random and
// degenerate configurations.
func TestHybridAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(12)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		switch trial % 3 {
		case 1: // exact collinear triple
			pts[2] = pts[0].Mid(pts[1])
		case 2: // near-collinear but exactly off
			m := pts[0].Mid(pts[1])
			pts[2] = geom.Pt(m.X, m.Y+1e-11)
		}
		full := bruteAmong(pts, nil)
		hybrid := CompleteVisibilityHybrid(pts)
		if full != hybrid {
			t.Fatalf("trial %d: full=%v hybrid=%v for %v", trial, full, hybrid, pts)
		}
	}
}

// The float predicate band: exact arithmetic distinguishes points the
// float kernel deliberately merges.
func TestExactResolvesBelowFloatEps(t *testing.T) {
	a := geom.Pt(0, 0)
	b := geom.Pt(1, 0)
	m := geom.Pt(0.5, 1e-12) // inside geom.Eps band, exactly off the line
	if !geom.AreCollinear(a, b, m) {
		t.Skip("float kernel resolves this offset; widen the test")
	}
	if Collinear(a, b, m) {
		t.Error("exact kernel merged a distinct point")
	}
}

// A single pair is blocked exactly when Complete Visibility fails among
// just that pair, with every other point obstructing.
func TestBlockedPairExact(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0)}
	if CompleteVisibilityAmong(pts, []bool{true, false, true}) {
		t.Error("blocked pair not detected")
	}
	if !CompleteVisibilityAmong(pts, []bool{true, true, false}) {
		t.Error("visible pair reported blocked")
	}
}

// Non-finite coordinates are engine bugs: the rational conversion and
// every predicate that reaches it panic rather than decide.
func TestFromFloatPanicsOnNonFinite(t *testing.T) {
	bad := geom.Point{X: 0, Y: math.NaN()}
	inf := geom.Point{X: math.Inf(1), Y: 0}
	for name, f := range map[string]func(){
		"fromFloat":               func() { fromFloat(bad) },
		"OrientSign NaN":          func() { OrientSign(bad, fp(1, 0), fp(0, 1)) },
		"OrientSign Inf":          func() { OrientSign(inf, fp(1, 0), fp(0, 1)) },
		"StrictlyBetween":         func() { StrictlyBetween(fp(0, 0), fp(2, 0), bad) },
		"CompleteVisibilityAmong": func() { CompleteVisibilityAmong([]geom.Point{fp(0, 0), bad}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a non-finite coordinate", name)
				}
			}()
			f()
		}()
	}
}
