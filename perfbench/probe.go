package main

import (
	"math/rand"
	"time"

	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// layers accumulates the per-layer split of a traced pass. Every field is
// measured from outside the program: by timing calls into public
// functions (the algorithm and scheduler wrappers below, the exact and
// audit calls in sim.go) or by reading counters the program exports
// (Result.Kernel, the server's /metrics). Engine runs execute one at a
// time on the benchmark goroutine, so nothing here needs locking.
type layers struct {
	computeNanos int64 // core.LogVis.Compute
	computeCalls int64
	circleNanos  int64 // circlevis.CircleVis.Compute

	schedNanos int64 // Scheduler.Next + Scheduler.MoveSteps
	schedCalls int64

	lookNanos, cvNanos       int64 // Result.Kernel, filled because an Observer is attached
	rowsComputed, rowsReused int64
	cvChecks                 int64
	confirmNanos, auditNanos int64
	runNanos                 int64 // engine runs
	events, cycles, moves    int64
	parityMismatches, capped int64
	runEvents                []int // per op, for the SkipSafetyChecks rerun

	// kept holds every keepEvery-th LogVis snapshot, and the action it
	// produced, for the allocation replay.
	kept []keptCompute
}

// keptCompute is one Compute call recorded for replay.
type keptCompute struct {
	snap model.Snapshot
	act  model.Action
}

// timedAlgo wraps an Algorithm and times each Compute call into l.
type timedAlgo struct {
	model.Algorithm
	l    *layers
	core bool // the wrapped algorithm is core.LogVis
}

func (a timedAlgo) Compute(s model.Snapshot) model.Action {
	t0 := time.Now()
	act := a.Algorithm.Compute(s)
	d := time.Since(t0).Nanoseconds()
	if !a.core {
		a.l.circleNanos += d
		return act
	}
	a.l.computeNanos += d
	a.l.computeCalls++
	if a.l.computeCalls%keepEvery == 0 {
		a.l.kept = append(a.l.kept, keptCompute{snap: copySnapshot(s), act: act})
	}
	return act
}

func copySnapshot(s model.Snapshot) model.Snapshot {
	return model.Snapshot{Self: s.Self, Others: append([]model.RobotView(nil), s.Others...)}
}

// timedSched wraps a Scheduler and times Next and MoveSteps into l. The
// engine reads SSYNC round counts through a concrete-type assertion,
// which the wrapper hides; no workload runs SSYNC.
type timedSched struct {
	sched.Scheduler
	l *layers
}

func (s timedSched) Next(st []sched.Status, now int, rng *rand.Rand) int {
	t0 := time.Now()
	r := s.Scheduler.Next(st, now, rng)
	s.l.schedNanos += time.Since(t0).Nanoseconds()
	s.l.schedCalls++
	return r
}

func (s timedSched) MoveSteps(rng *rand.Rand) int {
	t0 := time.Now()
	k := s.Scheduler.MoveSteps(rng)
	s.l.schedNanos += time.Since(t0).Nanoseconds()
	s.l.schedCalls++
	return k
}
