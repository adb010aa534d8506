package metrics

import (
	"testing"

	"luxvis/internal/sim"
)

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
