package core_test

// The zero-allocation guard for Compute's steady state: once the pooled
// scratch buffers have grown to the view size, a Compute allocates
// nothing on any branch. CI runs it next to the kernel's guard.

import (
	"slices"
	"testing"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// snapshotKinds are the Compute paths the guard covers.
var snapshotKinds = []string{"certified corner", "hull corner", "side", "interior mover"}

// snapshotCatcher keeps a copy of the first snapshot of each kind a run
// delivers.
type snapshotCatcher struct {
	inner *core.LogVis
	got   map[string]model.Snapshot
}

func (c *snapshotCatcher) Name() string           { return c.inner.Name() }
func (c *snapshotCatcher) Palette() []model.Color { return c.inner.Palette() }

func (c *snapshotCatcher) Compute(s model.Snapshot) model.Action {
	act := c.inner.Compute(s)
	pts := []geom.Point{s.Self.Pos}
	for _, o := range s.Others {
		pts = append(pts, o.Pos)
	}
	if len(pts) < 3 || geom.AllCollinear(pts) {
		return act
	}
	var kind string
	switch geom.ConvexHull(pts).Classify(s.Self.Pos) {
	case geom.HullCorner:
		kind = "hull corner"
		if geom.CornerCertified(s.Self.Pos, pts[1:]) {
			kind = "certified corner"
		}
	case geom.HullEdge:
		kind = "side"
	case geom.HullInterior:
		if act.IsStay(s.Self.Pos) {
			return act
		}
		kind = "interior mover"
	default:
		return act
	}
	if _, ok := c.got[kind]; !ok {
		s.Others = slices.Clone(s.Others)
		c.got[kind] = s
	}
	return act
}

func TestComputeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 128
	c := &snapshotCatcher{inner: core.NewLogVis(), got: map[string]model.Snapshot{}}
	// Grid edges hold Side robots; the rarer uncertified corners turn
	// up across the other families.
	for _, fam := range config.Families() {
		if len(c.got) == len(snapshotKinds) {
			break
		}
		opt := sim.DefaultOptions(sched.NewAsyncRandom(), 5)
		opt.MaxEpochs = 64
		if _, err := sim.Run(c, config.Generate(fam, n, 5), opt); err != nil {
			t.Fatal(err)
		}
	}
	a := core.NewLogVis()
	for _, kind := range snapshotKinds {
		s, ok := c.got[kind]
		if !ok {
			t.Fatalf("no n=%d run delivered a %s snapshot", n, kind)
		}
		a.Compute(s) // warm the pooled buffers
		if allocs := testing.AllocsPerRun(100, func() { a.Compute(s) }); allocs != 0 {
			t.Errorf("Compute on a %s snapshot (%d visible) allocates %.1f times per call, want 0",
				kind, len(s.Others), allocs)
		}
	}
}
