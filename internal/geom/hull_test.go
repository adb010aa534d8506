package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{
		Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4), // corners
		Pt(2, 0), Pt(4, 2), // edge points
		Pt(2, 2), Pt(1, 3), // interior
	}
	h := ConvexHull(pts)
	if len(h.Corners) != 4 {
		t.Fatalf("hull corners = %d, want 4 (%v)", len(h.Corners), h.Corners)
	}
	if h.Degenerate() {
		t.Error("square hull reported degenerate")
	}
	if !almostEq(h.Area(), 16) {
		t.Errorf("Area = %v", h.Area())
	}
	if !almostEq(h.Perimeter(), 16) {
		t.Errorf("Perimeter = %v", h.Perimeter())
	}
}

func TestConvexHullCCWOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		pts := make([]Point, 30)
		for i := range pts {
			pts[i] = randPt(rng)
		}
		h := ConvexHull(pts)
		n := len(h.Corners)
		if n < 3 {
			t.Fatal("random hull degenerate")
		}
		for i := 0; i < n; i++ {
			a, b, c := h.Corners[i], h.Corners[(i+1)%n], h.Corners[(i+2)%n]
			if Orient(a, b, c) != CCW {
				t.Fatalf("hull corners not in strict CCW order at %d", i)
			}
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); len(h.Corners) != 0 {
		t.Error("empty hull has corners")
	}
	if h := ConvexHull([]Point{Pt(1, 2)}); len(h.Corners) != 1 {
		t.Error("single-point hull wrong")
	}
	line := []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}
	h := ConvexHull(line)
	if len(h.Corners) != 2 {
		t.Fatalf("line hull corners = %d", len(h.Corners))
	}
	if !h.Degenerate() {
		t.Error("line hull not degenerate")
	}
	// Duplicates are tolerated.
	dup := []Point{Pt(0, 0), Pt(0, 0), Pt(1, 0), Pt(0, 1)}
	if got := len(ConvexHull(dup).Corners); got != 3 {
		t.Errorf("dup hull corners = %d", got)
	}
}

func TestClassify(t *testing.T) {
	h := ConvexHull([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)})
	cases := []struct {
		p    Point
		want PointClass
	}{
		{Pt(0, 0), HullCorner},
		{Pt(4, 4), HullCorner},
		{Pt(2, 0), HullEdge},
		{Pt(4, 2), HullEdge},
		{Pt(2, 2), HullInterior},
		{Pt(0.001, 0.001), HullInterior},
		{Pt(5, 2), HullOutside},
		{Pt(-0.001, 2), HullOutside},
	}
	for _, c := range cases {
		if got := h.Classify(c.p); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestClassifyDegenerate(t *testing.T) {
	seg := ConvexHull([]Point{Pt(0, 0), Pt(4, 4)})
	if got := seg.Classify(Pt(0, 0)); got != HullCorner {
		t.Errorf("segment endpoint = %v", got)
	}
	if got := seg.Classify(Pt(2, 2)); got != HullEdge {
		t.Errorf("segment interior = %v", got)
	}
	if got := seg.Classify(Pt(1, 2)); got != HullOutside {
		t.Errorf("off segment = %v", got)
	}
	single := ConvexHull([]Point{Pt(1, 1)})
	if got := single.Classify(Pt(1, 1)); got != HullCorner {
		t.Errorf("single point = %v", got)
	}
	if got := single.Classify(Pt(2, 2)); got != HullOutside {
		t.Errorf("single other = %v", got)
	}
}

func TestEdgeOf(t *testing.T) {
	h := ConvexHull([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)})
	a, b, ok := h.EdgeOf(Pt(2, 0))
	if !ok {
		t.Fatal("edge point not found on any edge")
	}
	if !OnSegment(a, b, Pt(2, 0)) {
		t.Errorf("EdgeOf returned wrong edge %v-%v", a, b)
	}
	if _, _, ok := h.EdgeOf(Pt(2, 2)); ok {
		t.Error("interior point assigned an edge")
	}
}

func TestContains(t *testing.T) {
	h := ConvexHull([]Point{Pt(0, 0), Pt(4, 0), Pt(2, 4)})
	if !h.Contains(Pt(2, 1)) || !h.Contains(Pt(0, 0)) || !h.Contains(Pt(2, 0)) {
		t.Error("Contains rejected inside/boundary points")
	}
	if h.Contains(Pt(4, 4)) {
		t.Error("Contains accepted outside point")
	}
}

func TestStrictlyConvexPosition(t *testing.T) {
	if !StrictlyConvexPosition([]Point{Pt(0, 0), Pt(4, 0), Pt(2, 4)}) {
		t.Error("triangle rejected")
	}
	if StrictlyConvexPosition([]Point{Pt(0, 0), Pt(2, 0), Pt(4, 0)}) {
		t.Error("collinear triple accepted")
	}
	if StrictlyConvexPosition([]Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(2, 2)}) {
		t.Error("interior point accepted")
	}
	if StrictlyConvexPosition([]Point{Pt(0, 0), Pt(0, 0), Pt(4, 0)}) {
		t.Error("duplicate points accepted")
	}
	if !StrictlyConvexPosition([]Point{Pt(0, 0), Pt(1, 1)}) {
		t.Error("pair rejected")
	}
	// Regular polygon: always strictly convex.
	var poly []Point
	for i := 0; i < 12; i++ {
		ang := 2 * math.Pi * float64(i) / 12
		poly = append(poly, Pt(math.Cos(ang)*10, math.Sin(ang)*10))
	}
	if !StrictlyConvexPosition(poly) {
		t.Error("regular 12-gon rejected")
	}
}

// Property: every input point is inside or on the hull, and hull corners
// are input points.
func TestHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		pts := make([]Point, 3+rng.Intn(60))
		for i := range pts {
			pts[i] = randPt(rng)
		}
		h := ConvexHull(pts)
		for _, p := range pts {
			if h.Classify(p) == HullOutside {
				t.Fatalf("input point %v outside its own hull", p)
			}
		}
		for _, c := range h.Corners {
			found := false
			for _, p := range pts {
				if p.Eq(c) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("hull corner %v is not an input point", c)
			}
		}
	}
}

// Property: points strictly on a circle are in strictly convex position.
func TestCirclePointsStrictlyConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		base := rng.Float64()
		for i := range pts {
			ang := base + 2*math.Pi*float64(i)/float64(n)
			pts[i] = Pt(500+300*math.Cos(ang), 500+300*math.Sin(ang))
		}
		if !StrictlyConvexPosition(pts) {
			t.Fatalf("circle points not strictly convex (n=%d)", n)
		}
		if !CompleteVisibilityNaive(pts, nil) {
			t.Fatalf("circle points not completely visible (n=%d)", n)
		}
	}
}

// TestSortPointsMatchesSortFunc: the hull's specialised sort, and its
// heapsort fallback, produce Less order on inputs with heavy duplication
// (few distinct coordinates) and on sorted and reversed runs.
func TestSortPointsMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cmp := func(a, b Point) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(300)
		distinct := 1 + rng.Intn(20)
		p := make([]Point, n)
		for i := range p {
			p[i] = Pt(float64(rng.Intn(distinct)), float64(rng.Intn(distinct)))
		}
		switch trial % 3 {
		case 1:
			slices.SortFunc(p, cmp)
		case 2:
			slices.SortFunc(p, cmp)
			slices.Reverse(p)
		}
		want := slices.Clone(p)
		slices.SortFunc(want, cmp)
		got := slices.Clone(p)
		sortPoints(got)
		if !slices.Equal(got, want) {
			t.Fatalf("sortPoints(%v) = %v, want %v", p, got, want)
		}
		got = slices.Clone(p)
		heapSortPoints(got)
		if !slices.Equal(got, want) {
			t.Fatalf("heapSortPoints(%v) = %v, want %v", p, got, want)
		}
	}
}
