package sim

import (
	"math"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// stayAlgo never moves and never changes color: the simplest correct
// algorithm for configurations that already satisfy CV.
type stayAlgo struct{}

func (stayAlgo) Name() string           { return "stay" }
func (stayAlgo) Palette() []model.Color { return []model.Color{model.Off} }
func (stayAlgo) Compute(s model.Snapshot) model.Action {
	return model.Stay(s.Self.Pos, model.Off)
}

// chaseAlgo moves toward the nearest visible robot's position — a
// deliberately colliding algorithm for exercising the safety checker.
type chaseAlgo struct{}

func (chaseAlgo) Name() string           { return "chase" }
func (chaseAlgo) Palette() []model.Color { return []model.Color{model.Off} }
func (chaseAlgo) Compute(s model.Snapshot) model.Action {
	v, ok := s.Nearest()
	if !ok {
		return model.Stay(s.Self.Pos, model.Off)
	}
	return model.MoveTo(v.Pos, model.Off)
}

// swapAlgo makes exactly two robots exchange positions along the same
// line — the canonical path-overlap violation.
type swapAlgo struct{}

func (swapAlgo) Name() string           { return "swap" }
func (swapAlgo) Palette() []model.Color { return []model.Color{model.Off, model.Done} }
func (swapAlgo) Compute(s model.Snapshot) model.Action {
	if s.Self.Color == model.Done || len(s.Others) != 1 {
		return model.Stay(s.Self.Pos, model.Done)
	}
	return model.MoveTo(s.Others[0].Pos, model.Done)
}

// badColorAlgo lights an undeclared color.
type badColorAlgo struct{}

func (badColorAlgo) Name() string           { return "badcolor" }
func (badColorAlgo) Palette() []model.Color { return []model.Color{model.Off} }
func (badColorAlgo) Compute(s model.Snapshot) model.Action {
	return model.Stay(s.Self.Pos, model.Beacon)
}

// badTargetAlgo computes a NaN destination.
type badTargetAlgo struct{}

func (badTargetAlgo) Name() string           { return "badtarget" }
func (badTargetAlgo) Palette() []model.Color { return []model.Color{model.Off} }
func (badTargetAlgo) Compute(s model.Snapshot) model.Action {
	return model.MoveTo(geom.Point{X: math.NaN(), Y: 0}, model.Off)
}

// spinAlgo never stabilizes: each cycle it orbits its start region.
type spinAlgo struct{}

func (spinAlgo) Name() string           { return "spin" }
func (spinAlgo) Palette() []model.Color { return []model.Color{model.Off} }
func (spinAlgo) Compute(s model.Snapshot) model.Action {
	return model.MoveTo(s.Self.Pos.RotateAround(geom.Pt(0, 0), 0.3), model.Off)
}

func run(t *testing.T, algo model.Algorithm, pts []geom.Point, o Options) Result {
	t.Helper()
	res, err := Run(algo, pts, o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	opt := DefaultOptions(sched.NewFSync(), 1)
	if _, err := Run(nil, []geom.Point{geom.Pt(0, 0)}, opt); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := Run(stayAlgo{}, nil, opt); err == nil {
		t.Error("empty start accepted")
	}
	if _, err := Run(stayAlgo{}, []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0)}, opt); err == nil {
		t.Error("duplicate start accepted")
	}
	if _, err := Run(stayAlgo{}, []geom.Point{{X: math.Inf(1), Y: 0}}, opt); err == nil {
		t.Error("non-finite start accepted")
	}
	if _, err := Run(stayAlgo{}, []geom.Point{geom.Pt(0, 0)}, Options{Seed: 1}); err == nil {
		t.Error("missing scheduler accepted")
	}
}

func TestTrivialConfigurations(t *testing.T) {
	for _, pts := range [][]geom.Point{
		{geom.Pt(5, 5)},
		{geom.Pt(0, 0), geom.Pt(10, 0)},
		{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8)},
	} {
		res := run(t, stayAlgo{}, pts, DefaultOptions(sched.NewFSync(), 1))
		if !res.Reached {
			t.Errorf("n=%d: CV start not recognized as terminal", len(pts))
		}
		if res.Collisions != 0 || res.PathCrossings != 0 {
			t.Errorf("n=%d: violations on a stationary run", len(pts))
		}
	}
}

func TestStayAlgoOnBlockedLineNeverFinishes(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0)}
	opt := DefaultOptions(sched.NewFSync(), 1)
	opt.MaxEpochs = 20
	res := run(t, stayAlgo{}, pts, opt)
	if res.Reached {
		t.Error("blocked line reported as CV")
	}
	if res.Epochs != 20 {
		t.Errorf("expected MaxEpochs abort, got %d epochs", res.Epochs)
	}
	if res.FirstCVEpoch != -1 {
		t.Errorf("FirstCVEpoch = %d on a permanently blocked run", res.FirstCVEpoch)
	}
}

func TestCollisionDetection(t *testing.T) {
	// Two robots chasing each other under FSYNC land on each other's
	// old positions simultaneously; over a few rounds chase dynamics
	// produce overlaps/pass-throughs the checker must flag.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	opt := DefaultOptions(sched.NewFSync(), 1)
	opt.MaxEpochs = 10
	res := run(t, chaseAlgo{}, pts, opt)
	if res.Collisions == 0 && res.PathCrossings == 0 {
		t.Error("chase produced no recorded violations")
	}
}

func TestSwapPathOverlap(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	opt := DefaultOptions(sched.NewFSync(), 1)
	opt.MaxEpochs = 5
	res := run(t, swapAlgo{}, pts, opt)
	if res.PathCrossings == 0 {
		t.Error("simultaneous swap not flagged as overlapping paths")
	}
}

func TestPaletteViolation(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	opt := DefaultOptions(sched.NewFSync(), 1)
	opt.MaxEpochs = 3
	res := run(t, badColorAlgo{}, pts, opt)
	found := false
	for _, v := range res.Violations {
		if v.Kind == VPalette {
			found = true
		}
	}
	if !found {
		t.Error("undeclared color not flagged")
	}
}

func TestBadTargetViolation(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	opt := DefaultOptions(sched.NewFSync(), 1)
	opt.MaxEpochs = 3
	res := run(t, badTargetAlgo{}, pts, opt)
	found := false
	for _, v := range res.Violations {
		if v.Kind == VBadTarget {
			found = true
		}
	}
	if !found {
		t.Error("non-finite target not flagged")
	}
	for _, p := range res.Final {
		if !p.IsFinite() {
			t.Error("non-finite position leaked into the world")
		}
	}
}

func TestMaxEpochsAbort(t *testing.T) {
	pts := []geom.Point{geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(-10, 0)}
	opt := DefaultOptions(sched.NewAsyncRandom(), 1)
	opt.MaxEpochs = 15
	res := run(t, spinAlgo{}, pts, opt)
	if res.Reached {
		t.Error("spinning swarm reported as terminal")
	}
	if res.Epochs > 15 {
		t.Errorf("epochs %d exceeded MaxEpochs", res.Epochs)
	}
}

func TestDeterminism(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(3, 7), geom.Pt(8, 4)}
	for _, name := range sched.Names() {
		a := run(t, spinAlgo{}, pts, withEpochs(DefaultOptions(sched.ByName(name), 42), 10))
		b := run(t, spinAlgo{}, pts, withEpochs(DefaultOptions(sched.ByName(name), 42), 10))
		if a.Events != b.Events || a.Cycles != b.Cycles || a.TotalDist != b.TotalDist {
			t.Errorf("%s: runs with equal seeds diverge", name)
		}
		for i := range a.Final {
			if !a.Final[i].Eq(b.Final[i]) {
				t.Errorf("%s: final positions diverge at %d", name, i)
			}
		}
	}
}

func withEpochs(o Options, epochs int) Options {
	o.MaxEpochs = epochs
	return o
}

func TestEpochAccountingFSync(t *testing.T) {
	// Under FSYNC every robot completes exactly one cycle per epoch, so
	// cycles == n × epochs (modulo the final partial wave).
	pts := []geom.Point{geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(-10, 0), geom.Pt(0, -10)}
	opt := DefaultOptions(sched.NewFSync(), 1)
	opt.MaxEpochs = 7
	res := run(t, spinAlgo{}, pts, opt)
	perEpoch := float64(res.Cycles) / float64(res.Epochs)
	if perEpoch < 3.5 || perEpoch > 4.5 {
		t.Errorf("FSYNC cycles per epoch = %v, want ≈ 4", perEpoch)
	}
}

func TestTraceRecording(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8)}
	opt := DefaultOptions(sched.NewFSync(), 1)
	opt.RecordTrace = true
	res := run(t, stayAlgo{}, pts, opt)
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	kinds := map[string]bool{}
	for _, e := range res.Trace {
		kinds[e.Kind] = true
	}
	if !kinds["look"] || !kinds["compute"] {
		t.Errorf("trace kinds = %v", kinds)
	}
}

func TestNonRigidStillSafe(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8), geom.Pt(4, 3)}
	opt := DefaultOptions(sched.NewAsyncRandom(), 3)
	opt.NonRigid = true
	opt.MaxEpochs = 10
	res := run(t, spinAlgo{}, pts, opt)
	// Non-rigid truncation must keep every executed move a prefix of
	// the intended segment: all positions remain finite and inside the
	// plausible orbit radius.
	for _, p := range res.Final {
		if !p.IsFinite() || p.Norm() > 100 {
			t.Errorf("non-rigid run produced position %v", p)
		}
	}
}
