package metrics

import (
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/sim"
)

func TestPeelDepth(t *testing.T) {
	// Triangle: depth 1. Triangle + center: depth 2.
	tri := []geom.Point{geom.Pt(0, 0), geom.Pt(8, 0), geom.Pt(4, 8)}
	if got := PeelDepth(tri); got != 1 {
		t.Errorf("triangle depth = %d", got)
	}
	withCenter := append(append([]geom.Point{}, tri...), geom.Pt(4, 3))
	if got := PeelDepth(withCenter); got != 2 {
		t.Errorf("triangle+center depth = %d", got)
	}
	// Nested squares: depth = number of rings.
	var nested []geom.Point
	for r := 1; r <= 3; r++ {
		s := float64(r * 4)
		nested = append(nested,
			geom.Pt(-s, -s), geom.Pt(s, -s), geom.Pt(s, s), geom.Pt(-s, s))
	}
	if got := PeelDepth(nested); got != 3 {
		t.Errorf("nested squares depth = %d", got)
	}
}

func TestAggregate(t *testing.T) {
	results := []sim.Result{
		{N: 10, Reached: true, Epochs: 5, FirstCVEpoch: 3, Moves: 20, TotalDist: 100, ColorsUsed: 5},
		{N: 10, Reached: true, Epochs: 7, FirstCVEpoch: -1, Moves: 30, TotalDist: 200, ColorsUsed: 6, Collisions: 1},
		{N: 10, Reached: false, Epochs: 100, FirstCVEpoch: 50, Moves: 10, TotalDist: 50, ColorsUsed: 4, PathCrossings: 2},
	}
	rs := Aggregate(results)
	if rs.Runs != 3 || rs.Reached != 2 {
		t.Errorf("Aggregate runs/reached = %d/%d", rs.Runs, rs.Reached)
	}
	if rs.MaxColors != 6 {
		t.Errorf("MaxColors = %d", rs.MaxColors)
	}
	if rs.Collisions != 1 || rs.PathCrosses != 2 {
		t.Errorf("violations = %d/%d", rs.Collisions, rs.PathCrosses)
	}
	if rs.Epochs.Min != 5 || rs.Epochs.Max != 100 {
		t.Errorf("epochs summary = %+v", rs.Epochs)
	}
	if rs.FirstCV.N != 2 {
		t.Errorf("FirstCV sample size = %d (unset epochs must be excluded)", rs.FirstCV.N)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty Aggregate did not panic")
		}
	}()
	Aggregate(nil)
}
