package circlevis_test

import (
	"testing"

	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/model"
)

// TestCircleVisComputeZeroAllocSteadyState: once the pooled point buffer
// has grown to the view size, Compute allocates nothing, for settled
// robots and movers alike. Every robot of a uniform configuration gets
// a snapshot that sees all the others.
func TestCircleVisComputeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pts := config.Generate(config.Uniform, 128, 3)
	a := circlevis.NewCircleVis()
	settled, moved := 0, 0
	for i := range pts {
		s := fullView(pts, i)
		act := a.Compute(s) // warm the pooled buffer
		switch {
		case !act.IsStay(pts[i]):
			moved++
		case act.Color == model.Done:
			settled++
		}
		if allocs := testing.AllocsPerRun(20, func() { a.Compute(s) }); allocs != 0 {
			t.Fatalf("Compute for robot %d (action %+v) allocates %.1f times per call, want 0", i, act, allocs)
		}
	}
	if settled == 0 || moved == 0 {
		t.Fatalf("guard covered %d settled robots and %d movers, want both", settled, moved)
	}
}
