// Package scenario composes the engine's stressor knobs — adversarial
// schedulers, crash faults, sensor jitter, non-rigid truncation
// distributions — behind one parseable configuration, so a hostile
// environment is a flag value (`-scenario
// "sched=greedy-stale,crash=2@0.25:idle,jitter=1e-6"`) rather than a
// bespoke test harness. Each knob is orthogonal: any subset composes,
// and an empty configuration is exactly the clean engine. The
// robustness matrix in internal/exp sweeps these configurations against
// the paper's claims; CheckLegality keeps the adversaries honest.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// Config is one scenario: a set of stressor knobs to apply on top of a
// base simulation configuration. The zero value applies nothing.
type Config struct {
	// Sched, when non-empty, overrides the scheduler; any name from
	// SchedulerNames is valid (built-ins plus the adversaries in this
	// package).
	Sched string
	// Window tunes the fairness window of schedulers that have one
	// (0 keeps each scheduler's default).
	Window int
	// SubSteps tunes the move sub-step count of schedulers that expose
	// it (0 keeps each scheduler's default).
	SubSteps int

	// CrashK is the number of robots to crash (0 = no crash fault).
	CrashK int
	// CrashFrac places the crash trigger at this fraction of the crash
	// horizon (0 defaults to 0.25). The horizon is 64·n events — a few
	// epochs of an n-robot run, so faults land early-to-mid run on
	// convergence timescales — clamped to the run's event budget. (The
	// budget itself is a runaway cap thousands of epochs out; a fraction
	// of it would fire long after every run has terminated.)
	CrashFrac float64
	// CrashStage is the LCM stage at which the victims halt.
	CrashStage sched.Stage

	// Jitter is the sensor-error amplitude (sim.Options.SensorJitter).
	Jitter float64

	// NonRigid, when non-empty, enables non-rigid motion with the given
	// truncation distribution.
	NonRigid sim.NonRigidDist
}

// defaultCrashFrac places unspecified crash triggers a quarter into the
// run's event budget: late enough for the algorithm to have committed
// to a strategy, early enough that survivors have most of the run to
// recover.
const defaultCrashFrac = 0.25

// Parse reads the comma-separated key=value scenario grammar:
//
//	sched=NAME        scheduler override (see SchedulerNames)
//	window=INT        fairness window in events
//	substeps=INT      move sub-steps
//	crash=K[@FRAC][:STAGE]
//	                  crash K robots at FRAC of the crash horizon
//	                  (64·n events, clamped to the event budget;
//	                  default 0.25) in STAGE (idle|looked|computed|
//	                  moving, default idle)
//	jitter=FLOAT      sensor-error amplitude
//	nonrigid=DIST     non-rigid truncation distribution
//	                  (uniform|minimal|quadratic|bimodal)
//
// The empty string parses to the zero Config. Parse validates shape and
// ranges; name validity (scheduler, distribution) is checked in Apply
// so the error surfaces where the knob is used.
func Parse(s string) (Config, error) {
	var c Config
	s = strings.TrimSpace(s)
	if s == "" {
		return c, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok || val == "" {
			return Config{}, fmt.Errorf("scenario: %q is not key=value", part)
		}
		switch key {
		case "sched":
			c.Sched = val
		case "window":
			w, err := strconv.Atoi(val)
			if err != nil || w < 0 {
				return Config{}, fmt.Errorf("scenario: window=%q is not a non-negative integer", val)
			}
			c.Window = w
		case "substeps":
			ss, err := strconv.Atoi(val)
			if err != nil || ss < 0 {
				return Config{}, fmt.Errorf("scenario: substeps=%q is not a non-negative integer", val)
			}
			c.SubSteps = ss
		case "crash":
			if err := parseCrash(val, &c); err != nil {
				return Config{}, err
			}
		case "jitter":
			j, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(j) || math.IsInf(j, 0) || j < 0 {
				return Config{}, fmt.Errorf("scenario: jitter=%q is not a finite non-negative amplitude", val)
			}
			c.Jitter = j
		case "nonrigid":
			c.NonRigid = sim.NonRigidDist(val)
		default:
			return Config{}, fmt.Errorf("scenario: unknown key %q (known: sched, window, substeps, crash, jitter, nonrigid)", key)
		}
	}
	return c, nil
}

// parseCrash reads K[@FRAC][:STAGE].
func parseCrash(val string, c *Config) error {
	spec := val
	if spec, stage, ok := cut3(val); ok {
		st, err := stageByName(stage)
		if err != nil {
			return err
		}
		c.CrashStage = st
		val = spec
	}
	kStr, fracStr, hasFrac := strings.Cut(val, "@")
	k, err := strconv.Atoi(kStr)
	if err != nil || k < 1 {
		return fmt.Errorf("scenario: crash=%q: count %q is not a positive integer", spec, kStr)
	}
	c.CrashK = k
	if hasFrac {
		f, err := strconv.ParseFloat(fracStr, 64)
		if err != nil || math.IsNaN(f) || !(f >= 0 && f <= 1) {
			return fmt.Errorf("scenario: crash=%q: fraction %q is not in [0, 1]", spec, fracStr)
		}
		c.CrashFrac = f
	}
	return nil
}

// cut3 splits "rest:stage" from the right so the fraction part may not
// contain colons.
func cut3(s string) (rest, stage string, ok bool) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+1:], true
}

func stageByName(name string) (sched.Stage, error) {
	switch name {
	case "idle":
		return sched.Idle, nil
	case "looked":
		return sched.Looked, nil
	case "computed":
		return sched.Computed, nil
	case "moving":
		return sched.Moving, nil
	default:
		return 0, fmt.Errorf("scenario: unknown crash stage %q (known: idle, looked, computed, moving)", name)
	}
}

// String renders the config back into the Parse grammar (keys in
// canonical order); Parse(c.String()) reproduces c.
func (c Config) String() string {
	var parts []string
	if c.Sched != "" {
		parts = append(parts, "sched="+c.Sched)
	}
	if c.Window > 0 {
		parts = append(parts, fmt.Sprintf("window=%d", c.Window))
	}
	if c.SubSteps > 0 {
		parts = append(parts, fmt.Sprintf("substeps=%d", c.SubSteps))
	}
	if c.CrashK > 0 {
		s := fmt.Sprintf("crash=%d", c.CrashK)
		if c.CrashFrac > 0 {
			s += fmt.Sprintf("@%g", c.CrashFrac)
		}
		if c.CrashStage != sched.Idle {
			s += ":" + c.CrashStage.String()
		}
		parts = append(parts, s)
	}
	if c.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%g", c.Jitter))
	}
	if c.NonRigid != "" {
		parts = append(parts, "nonrigid="+string(c.NonRigid))
	}
	return strings.Join(parts, ",")
}

// Apply threads the scenario into opt for a run of n robots: scheduler
// override, crash specs spread evenly across the swarm and armed at
// CrashFrac of the event budget, sensor jitter, and the non-rigid
// distribution. Knobs at their zero value leave opt untouched, so an
// empty Config is the identity.
func (c Config) Apply(opt *sim.Options, n int) error {
	if n <= 0 {
		return fmt.Errorf("scenario: cannot apply to %d robots", n)
	}
	if c.Sched != "" {
		s, err := NewScheduler(c.Sched, c.Window, c.SubSteps)
		if err != nil {
			return err
		}
		opt.Scheduler = s
	}
	if c.CrashK > 0 {
		if c.CrashK >= n {
			return fmt.Errorf("scenario: crash count %d needs at least one survivor among %d robots", c.CrashK, n)
		}
		frac := c.CrashFrac
		if !(frac > 0) {
			frac = defaultCrashFrac
		}
		// Arm against the crash horizon (64·n events ≈ a few epochs), not
		// the engine's runaway event cap: the cap is thousands of epochs
		// out, so a fraction of it would fire only after every realistic
		// run has already terminated and the fault would be a no-op.
		horizon := 64 * n
		if opt.MaxEvents > 0 && opt.MaxEvents < horizon {
			horizon = opt.MaxEvents
		}
		at := int(frac * float64(horizon))
		for i := 0; i < c.CrashK; i++ {
			opt.Crashes = append(opt.Crashes, sim.CrashSpec{
				// Victims spread evenly across the index range, so a
				// multi-crash fault hits structurally different robots.
				Robot:   i * n / c.CrashK,
				AtEvent: at,
				Stage:   c.CrashStage,
			})
		}
	}
	if c.Jitter > 0 {
		opt.SensorJitter = c.Jitter
	}
	if c.NonRigid != "" {
		opt.NonRigid = true
		opt.NonRigidDist = c.NonRigid
	}
	return nil
}

// NewScheduler resolves a scheduler by name — the built-ins of
// internal/sched plus this package's adversaries — and applies the
// window/subSteps tuning where the scheduler exposes the knob (zero
// keeps the scheduler's default).
func NewScheduler(name string, window, subSteps int) (sched.Scheduler, error) {
	switch name {
	case "greedy-stale":
		g := NewGreedyStale()
		if window > 0 {
			g.Window = window
		}
		if subSteps > 0 {
			g.SubSteps = subSteps
		}
		return g, nil
	case "starve-edge":
		s := NewStarveEdge()
		if window > 0 {
			s.Window = window
		}
		if subSteps > 0 {
			s.SubSteps = subSteps
		}
		return s, nil
	}
	s, err := sched.ByNameErr(name)
	if err != nil {
		return nil, fmt.Errorf("scenario: unknown scheduler %q (known: %s)",
			name, strings.Join(SchedulerNames(), ", "))
	}
	switch t := s.(type) {
	case *sched.AsyncRandom:
		if window > 0 {
			t.Window = window
		}
		if subSteps > 0 {
			t.MaxSubSteps = subSteps
		}
	case *sched.AsyncStale:
		if subSteps > 0 {
			t.SubSteps = subSteps
		}
	case *sched.AsyncRoundRobin:
		if subSteps > 0 {
			t.SubSteps = subSteps
		}
	}
	return s, nil
}

// SchedulerNames lists every name NewScheduler accepts: the built-in
// canonical names followed by this package's adversaries.
func SchedulerNames() []string {
	names := append([]string(nil), sched.Names()...)
	names = append(names, "greedy-stale", "starve-edge")
	return names
}

// Stressors returns the canonical stressor axis of the robustness
// matrix: named configurations from the clean baseline through each
// degradation, for a swarm of n robots. The window sizes scale with the
// swarm so adversaries bite without stalling small test runs.
func Stressors(n int) []NamedConfig {
	return []NamedConfig{
		{"none", Config{}},
		{"adv-greedy", Config{Sched: "greedy-stale", Window: 64 * n}},
		{"adv-starve", Config{Sched: "starve-edge", Window: 16 * n}},
		{"crash", Config{CrashK: crashK(n), CrashFrac: 0.25}},
		{"crash-moving", Config{CrashK: 1, CrashFrac: 0.25, CrashStage: sched.Moving}},
		{"jitter", Config{Jitter: 1e-6}},
		{"nonrigid-min", Config{NonRigid: sim.NonRigidMinimal}},
	}
}

// NamedConfig is a labeled scenario for matrix rows.
type NamedConfig struct {
	Name string
	Cfg  Config
}

// crashK is the matrix's crash-fault count: an eighth of the swarm,
// at least one.
func crashK(n int) int {
	k := n / 8
	if k < 1 {
		k = 1
	}
	return k
}
