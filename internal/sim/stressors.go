// Stressor plumbing for the scenario layer (internal/scenario): crash
// faults, sensor jitter and non-rigid truncation distributions. Each
// stressor is an orthogonal Options knob with a disabled fast path that
// leaves the clean engine byte-for-byte identical: a run whose crashes
// have not fired yet, or whose jitter amplitude is zero, consumes the
// exact same random stream as a run without the knob, so the
// deterministic-prefix semantics of RunCtx are preserved.
package sim

import (
	"fmt"
	"math"
	"sort"

	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// CrashSpec schedules one fail-stop fault. The robot halts permanently
// at the first event at or after AtEvent at which it sits in Stage:
// its position and last published light freeze, and it remains fully
// visible (and occluding) to every survivor's Look. A robot crashed
// mid-move stops wherever its last completed sub-step left it.
type CrashSpec struct {
	// Robot is the index of the robot to crash.
	Robot int
	// AtEvent arms the crash: it fires at the first event >= AtEvent at
	// which the robot is in Stage.
	AtEvent int
	// Stage is the LCM stage at which the robot halts. The zero value
	// (sched.Idle) halts it between cycles; sched.Looked freezes a held
	// snapshot, sched.Computed a pending move, sched.Moving a move in
	// flight. A crash armed for a stage the robot never re-enters never
	// fires.
	Stage sched.Stage
}

// NonRigidDist selects the truncation-fraction distribution of the
// non-rigid motion adversary (Options.NonRigid). Every distribution
// draws a fraction f in [MinMoveFrac, 1]; they differ in how hard they
// push toward the adversarial minimum.
type NonRigidDist string

// The non-rigid truncation distributions.
const (
	// NonRigidUniform draws f uniformly from [MinMoveFrac, 1) — the
	// original stress mode, and the meaning of the empty string.
	NonRigidUniform NonRigidDist = "uniform"
	// NonRigidMinimal always truncates to exactly MinMoveFrac: the
	// worst legal adversary, every move cut to its guaranteed floor.
	NonRigidMinimal NonRigidDist = "minimal"
	// NonRigidQuadratic draws f = MinMoveFrac + u²·(1-MinMoveFrac),
	// skewing mass toward the floor while still occasionally letting a
	// move complete.
	NonRigidQuadratic NonRigidDist = "quadratic"
	// NonRigidBimodal truncates to the floor or lets the move complete
	// in full, with equal probability — maximal per-move variance.
	NonRigidBimodal NonRigidDist = "bimodal"
)

// NonRigidDists lists the selectable distributions in canonical order
// (the empty-string default is NonRigidUniform).
func NonRigidDists() []NonRigidDist {
	return []NonRigidDist{NonRigidUniform, NonRigidMinimal, NonRigidQuadratic, NonRigidBimodal}
}

func validNonRigidDist(d NonRigidDist) bool {
	if d == "" {
		return true
	}
	for _, k := range NonRigidDists() {
		if d == k {
			return true
		}
	}
	return false
}

// DefaultMaxEvents is the event cap RunCtx derives when
// Options.MaxEvents is zero, exported so the scenario layer can arm
// crash triggers against the same budget the engine will actually use.
func DefaultMaxEvents(maxEpochs, n int) int {
	return maxEpochs*n*16 + 100_000
}

// jitterSeedSalt decorrelates the sensor-jitter stream from the
// scheduler stream: both derive from Options.Seed, but jitter draws
// never advance the scheduler's RNG, so enabling jitter preserves the
// run's interleaving exactly.
const jitterSeedSalt = 0x5ca1ab1ec0ffee

// validateStressors checks the stressor knobs of opt for a run of n
// robots. It is called by RunCtx after the scheduler/start validation.
func validateStressors(opt *Options, n int) error {
	if len(opt.Crashes) > 0 {
		if len(opt.Crashes) >= n {
			return fmt.Errorf("sim: %d crash specs for %d robots (at least one robot must survive)", len(opt.Crashes), n)
		}
		seen := make(map[int]bool, len(opt.Crashes))
		for i, cs := range opt.Crashes {
			if cs.Robot < 0 || cs.Robot >= n {
				return fmt.Errorf("sim: crash spec %d targets robot %d of %d", i, cs.Robot, n)
			}
			if seen[cs.Robot] {
				return fmt.Errorf("sim: duplicate crash spec for robot %d", cs.Robot)
			}
			seen[cs.Robot] = true
			if cs.AtEvent < 0 {
				return fmt.Errorf("sim: crash spec %d has negative AtEvent %d", i, cs.AtEvent)
			}
			if cs.Stage > sched.Moving {
				return fmt.Errorf("sim: crash spec %d has unknown stage %d", i, cs.Stage)
			}
		}
	}
	if math.IsNaN(opt.SensorJitter) || math.IsInf(opt.SensorJitter, 0) || opt.SensorJitter < 0 {
		return fmt.Errorf("sim: SensorJitter %v is not a finite non-negative amplitude", opt.SensorJitter)
	}
	if !validNonRigidDist(opt.NonRigidDist) {
		return fmt.Errorf("sim: unknown NonRigidDist %q (known: %v)", opt.NonRigidDist, NonRigidDists())
	}
	return nil
}

// fireCrashes fires every armed crash spec whose robot sits in the
// spec's stage, then rebuilds the survivor view and resets the
// scheduler over it. Called once per event while specs are pending;
// it consumes no randomness, so the pre-crash prefix of the run is
// identical to the same run without crash specs.
func (e *engine) fireCrashes() {
	fired := false
	keep := e.crashPending[:0]
	for _, cs := range e.crashPending {
		if e.now >= cs.AtEvent && e.st[cs.Robot].Stage == cs.Stage {
			e.crashRobot(cs.Robot)
			fired = true
			continue
		}
		keep = append(keep, cs)
	}
	e.crashPending = keep
	if !fired {
		return
	}
	e.aliveIdx = e.aliveIdx[:0]
	for i := range e.st {
		if e.alive[i] {
			e.aliveIdx = append(e.aliveIdx, i)
		}
	}
	// The scheduler now runs over the compacted survivor view; resetting
	// it keeps its internal per-robot state (subset masks, wave orders)
	// sized to what Next will actually see.
	e.opt.Scheduler.Reset(len(e.aliveIdx))
	// Survivor-CV can differ from full CV at the same world version, so
	// the per-version cache is stale the moment the survivor set changes.
	e.cvCacheAt = -1
}

// crashRobot halts robot r where it stands.
func (e *engine) crashRobot(r int) {
	if e.alive == nil {
		e.alive = make([]bool, len(e.st))
		for i := range e.alive {
			e.alive[i] = true
		}
	}
	e.alive[r] = false
	e.numCrashed++
	e.res.Crashed = append(e.res.Crashed, r)
	if e.st[r].Stage == sched.Moving && !e.opt.SkipSafetyChecks {
		// Halted mid-flight: the traveled prefix is an ended relocation
		// for the concurrency-aware path-crossing check, truncated where
		// the robot actually stopped — and ended, for concurrency
		// purposes, at its last executed sub-step, not at the crash.
		e.endMove(r, geom.Seg(e.plan[r].from, e.pos[r]), e.plan[r].lookEvent, e.plan[r].lastStep)
	}
	e.trace(r, "crash")
}

// nextRobot asks the scheduler for the next robot. Without crashes the
// scheduler sees the engine's status slice directly; once a crash has
// fired it sees a compacted survivor view and the chosen index is
// mapped back.
func (e *engine) nextRobot() int {
	if e.numCrashed == 0 {
		r := e.opt.Scheduler.Next(e.st, e.now, e.rng)
		if r < 0 || r >= len(e.st) {
			panic(fmt.Sprintf("sim: scheduler %s returned invalid robot %d", e.opt.Scheduler.Name(), r))
		}
		return r
	}
	e.stBuf = e.stBuf[:0]
	for _, i := range e.aliveIdx {
		e.stBuf = append(e.stBuf, e.st[i])
	}
	c := e.opt.Scheduler.Next(e.stBuf, e.now, e.rng)
	if c < 0 || c >= len(e.stBuf) {
		panic(fmt.Sprintf("sim: scheduler %s returned invalid robot %d", e.opt.Scheduler.Name(), c))
	}
	return e.aliveIdx[c]
}

// isCrashed reports whether robot i has halted.
func (e *engine) isCrashed(i int) bool {
	return e.alive != nil && !e.alive[i]
}

// sortCrashed canonicalizes Result.Crashed (crashes may fire in any
// spec order within one event).
func (e *engine) sortCrashed() {
	sort.Ints(e.res.Crashed)
}

// drawMoveFrac draws the non-rigid truncation fraction according to
// Options.NonRigidDist. The empty default reproduces the historical
// uniform draw exactly (same RNG consumption), so existing seeds
// replay unchanged.
func (e *engine) drawMoveFrac() float64 {
	min := e.opt.MinMoveFrac
	switch e.opt.NonRigidDist {
	case "", NonRigidUniform:
		return min + e.rng.Float64()*(1-min)
	case NonRigidMinimal:
		return min
	case NonRigidQuadratic:
		u := e.rng.Float64()
		return min + u*u*(1-min)
	case NonRigidBimodal:
		if e.rng.Float64() < 0.5 {
			return min
		}
		return 1
	default:
		// Unreachable: validateStressors rejected unknown distributions.
		return min + e.rng.Float64()*(1-min)
	}
}

// jitterViews perturbs the observed positions of a snapshot's others
// by an independent uniform offset in [-SensorJitter, +SensorJitter]
// per coordinate. The observer's own position is its coordinate origin
// and stays exact, and the world itself is never touched — only what
// the algorithm sees.
func (e *engine) jitterViews(others []model.RobotView) {
	j := e.opt.SensorJitter
	for i := range others {
		others[i].Pos.X += (2*e.jrng.Float64() - 1) * j
		others[i].Pos.Y += (2*e.jrng.Float64() - 1) * j
	}
}
