package geom_test

import (
	"math/rand"
	"testing"

	"luxvis/internal/geom"
)

// TestConvexHullZeroAllocScratch: a HullScratch that has grown to the
// input size builds hulls — proper, collinear and single-point — without
// allocating.
func TestConvexHullZeroAllocScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 128)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	line := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 3), geom.Pt(1, 1), geom.Pt(2, 2)}
	var sc geom.HullScratch
	sc.ConvexHull(pts) // grow the buffers
	assertZeroAllocs(t, "HullScratch.ConvexHull", func() {
		if h := sc.ConvexHull(pts); h.Degenerate() {
			t.Fatal("random hull degenerate")
		}
		if h := sc.ConvexHull(line); len(h.Corners) != 2 {
			t.Fatalf("collinear hull has %d corners", len(h.Corners))
		}
		if h := sc.ConvexHull(pts[:1]); len(h.Corners) != 1 {
			t.Fatalf("single-point hull has %d corners", len(h.Corners))
		}
	})
}
