// Package verify is an independent auditor for recorded runs: given the
// event trace of a simulation (sim.Result with RecordTrace), it
// reconstructs the world event by event and re-derives every safety
// verdict from scratch — collisions, pass-throughs, concurrent path
// crossings, palette compliance, and the terminal Complete Visibility
// predicate. It shares the exact predicates with the engine but none of
// its bookkeeping, so agreement between the two is a genuine cross-check
// (the engine watching itself is not).
//
// Crash-fault runs audit the same way: a "crash" trace event ends the
// victim's open move where it stood (the traveled prefix enters the
// crossing sweep, matching the engine's end-of-move accounting), the
// victim must stay silent for the rest of the trace, and the terminal
// predicate splits into FinalCV (all robots) and SurvivorCV (mutual
// visibility among survivors only, with the halted robots still
// obstructing — the predicate a crash run's Reached refers to).
//
// cmd/visreplay -verify drives it; the test suite asserts
// engine/auditor agreement across algorithms and schedulers.
package verify

import (
	"fmt"

	"luxvis/internal/exact"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sim"
)

// Report is the auditor's independent tally for one recorded run.
type Report struct {
	// Events is the number of trace events audited.
	Events int
	// Colocations counts exact position coincidences after any step.
	Colocations int
	// PassThroughs counts steps whose swept segment passed exactly
	// through another robot's position.
	PassThroughs int
	// PathCrossings counts pairs of cycle-span-concurrent moves whose
	// full path segments properly cross or collinearly overlap
	// (exactly).
	PathCrossings int
	// PaletteViolations counts colors outside the declared palette.
	PaletteViolations int
	// Crashes counts crash events; Crashed lists the halted robots in
	// ascending index order.
	Crashes int
	Crashed []int
	// FinalCV reports the exact Complete Visibility predicate on the
	// reconstructed final configuration, all robots included.
	FinalCV bool
	// SurvivorCV reports mutual visibility among the robots alive at the
	// end of the trace, with crashed robots still obstructing; equal to
	// FinalCV when nothing crashed. For a crash run this — not FinalCV —
	// is the predicate the engine's Reached refers to.
	SurvivorCV bool
	// Problems lists human-readable descriptions of everything found
	// (capped at 100 entries).
	Problems []string
}

func (r *Report) problem(format string, args ...any) {
	if len(r.Problems) < 100 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Clean reports whether the audit found no safety violations at all.
func (r *Report) Clean() bool {
	return r.Colocations == 0 && r.PassThroughs == 0 &&
		r.PathCrossings == 0 && r.PaletteViolations == 0
}

// move is a reconstructed relocation: consecutive step events of one
// robot belonging to one cycle (bounded by that robot's look/compute
// events).
type move struct {
	robot     int
	from, to  geom.Point
	lookEvent int
	endEvent  int
}

// Audit reconstructs and re-verifies a recorded run. The result must
// have been produced with Options.RecordTrace; start must be the run's
// initial configuration (res.Trace does not repeat it). palette is the
// algorithm's declared color set.
func Audit(start []geom.Point, palette []model.Color, res sim.Result) (*Report, error) {
	if len(res.Trace) == 0 {
		return nil, fmt.Errorf("verify: result has no recorded trace")
	}
	n := len(start)
	if n != res.N {
		return nil, fmt.Errorf("verify: start has %d robots, result says %d", n, res.N)
	}
	rep := &Report{}
	allowed := map[model.Color]bool{model.Off: true}
	for _, c := range palette {
		allowed[c] = true
	}

	pos := append([]geom.Point(nil), start...)
	lastLook := make([]int, n)
	for i := range lastLook {
		lastLook[i] = -1
	}
	// Open moves per robot (in flight), and the log of completed moves
	// for the concurrency sweep.
	open := make([]*move, n)
	var done []move
	crashed := make([]bool, n)

	// flush closes robot r's open move. Its endEvent is already the
	// event of the last executed sub-step — the moment the executed
	// segment stopped growing — and is deliberately NOT advanced to the
	// flush point (the robot's next Look, its crash, or the end of the
	// trace): between the last sub-step and the flush the robot changed
	// nothing, so no later motion can have been concurrent with this
	// move. Stamping the flush event here would widen the concurrency
	// span and over-count crossings relative to the engine.
	flush := func(r int) {
		if open[r] != nil {
			done = append(done, *open[r])
			open[r] = nil
		}
	}

	for _, e := range res.Trace {
		rep.Events++
		if e.Robot < 0 || e.Robot >= n {
			return nil, fmt.Errorf("verify: event %d names robot %d of %d", e.Event, e.Robot, n)
		}
		if crashed[e.Robot] {
			// A halted robot is dead forever — any later event under its
			// name means the engine kept scheduling a crashed robot.
			return nil, fmt.Errorf("verify: event %d: robot %d acted (%s) after crashing",
				e.Event, e.Robot, e.Kind)
		}
		p := geom.Pt(e.Pos.X, e.Pos.Y)
		switch e.Kind {
		case "crash":
			// The victim halts where it stands: its in-flight move, if
			// any, ends as the traveled prefix — the same truncated
			// segment the engine feeds its end-of-move crossing check.
			flush(e.Robot)
			crashed[e.Robot] = true
			rep.Crashes++
		case "look":
			flush(e.Robot)
			lastLook[e.Robot] = e.Event
		case "compute":
			if !allowed[e.Color] {
				rep.PaletteViolations++
				rep.problem("event %d: robot %d lit undeclared color %v", e.Event, e.Robot, e.Color)
			}
		case "step":
			old := pos[e.Robot]
			// Audit the swept sub-segment against every other robot.
			for o := 0; o < n; o++ {
				if o == e.Robot {
					continue
				}
				q := pos[o]
				// Bitwise on purpose: the auditor recounts *exact*
				// colocations, independently mirroring the engine's
				// checkSubStep refinement of the epsilon hit.
				//lint:allow floateq exact colocation is the property being audited
				if q.X == p.X && q.Y == p.Y {
					rep.Colocations++
					rep.problem("event %d: robots %d and %d at %v", e.Event, e.Robot, o, p)
					continue
				}
				if geom.Seg(old, p).Dist(q) <= 10*geom.Eps &&
					exact.StrictlyBetween(old, p, q) {
					rep.PassThroughs++
					rep.problem("event %d: robot %d passed through robot %d at %v", e.Event, e.Robot, o, q)
				}
			}
			if open[e.Robot] == nil {
				open[e.Robot] = &move{
					robot:     e.Robot,
					from:      old,
					lookEvent: lastLook[e.Robot],
				}
			}
			open[e.Robot].to = p
			open[e.Robot].endEvent = e.Event
			pos[e.Robot] = p
		default:
			return nil, fmt.Errorf("verify: unknown trace event kind %q", e.Kind)
		}
	}
	for r := range open {
		flush(r)
	}

	rep.PathCrossings = crossingSweep(done, rep)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = !crashed[i]
		if crashed[i] {
			rep.Crashed = append(rep.Crashed, i)
		}
	}
	// Full CV implies survivor CV, so the mask is consulted only when
	// full CV fails.
	rep.FinalCV = exact.CompleteVisibilityAmong(pos, nil)
	rep.SurvivorCV = rep.FinalCV || exact.CompleteVisibilityAmong(pos, alive)

	// Cross-check the derived crashed set against the engine's (both in
	// ascending index order — the engine sorts at finish, the auditor
	// collects by index).
	if len(rep.Crashed) != len(res.Crashed) {
		return nil, fmt.Errorf("verify: trace shows %d crashes %v, engine recorded %v",
			len(rep.Crashed), rep.Crashed, res.Crashed)
	}
	for i, r := range rep.Crashed {
		if r != res.Crashed[i] {
			return nil, fmt.Errorf("verify: crashed set mismatch: trace %v, engine %v",
				rep.Crashed, res.Crashed)
		}
	}

	// Cross-check the reconstructed final configuration against the
	// engine's.
	for i := range pos {
		if !pos[i].Eq(res.Final[i]) {
			return nil, fmt.Errorf("verify: reconstructed position %d = %v, engine recorded %v",
				i, pos[i], res.Final[i])
		}
	}
	return rep, nil
}

// crossingSweep counts cycle-span-concurrent move pairs with properly
// crossing (or collinearly overlapping) paths — the same conservative
// concurrency notion as the engine, derived independently: moves A and B
// conflict when A's span [lookEvent, endEvent] overlaps B's motion
// window and their full segments intersect improperly.
func crossingSweep(moves []move, rep *Report) int {
	count := 0
	for i := 0; i < len(moves); i++ {
		for j := i + 1; j < len(moves); j++ {
			a, b := moves[i], moves[j]
			if a.robot == b.robot {
				continue
			}
			// Sequential iff one move ends before the other robot even
			// took the snapshot that decided its move; everything else
			// is potentially concurrent in continuous time (the
			// engine's notion, re-derived).
			if a.endEvent <= b.lookEvent || b.endEvent <= a.lookEvent {
				continue
			}
			sa := geom.Seg(a.from, a.to)
			sb := geom.Seg(b.from, b.to)
			kind, _ := sa.Intersect(sb)
			hit := false
			switch kind {
			case geom.ProperCrossing:
				hit = exact.SegmentsProperlyCross(sa.A, sa.B, sb.A, sb.B)
			case geom.Overlapping:
				hit = exact.SegmentsOverlap(sa.A, sa.B, sb.A, sb.B)
			}
			if hit {
				count++
				rep.problem("moves of robots %d (events %d-%d) and %d (events %d-%d) cross",
					a.robot, a.lookEvent, a.endEvent, b.robot, b.lookEvent, b.endEvent)
			}
		}
	}
	return count
}
