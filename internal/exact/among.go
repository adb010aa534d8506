package exact

import (
	"luxvis/internal/geom"
)

// candidateTol is the folded-angle tolerance handed to the float
// candidate filter. An exactly collinear triple of finite float64
// coordinates produces a folded-angle gap many orders of magnitude below
// this, so the candidate set is a strict superset of the exactly
// collinear triples and confirming candidates exactly decides CV exactly.
const candidateTol = 1e-5

// CompleteVisibilityAmong decides, exactly, Complete Visibility among
// the points marked in alive, with every point — alive or not — acting
// as a potential obstruction. A nil alive means every point is alive:
// the paper's goal predicate. With a mask it is the terminal predicate
// of crash-fault runs: survivors must be pairwise mutually visible, but
// a halted robot's frozen body still blocks lines of sight and still
// must not be colocated with a survivor.
//
// It costs O(n² log n) expected time: the float angular filter
// (geom.CollinearCandidates) proposes candidate collinear triples and
// each is confirmed over big.Rat. A confirmed collinear triple refutes
// CV only when its two endpoints are both alive and its blocker lies
// strictly between them — a dead endpoint's blocked sightline is
// irrelevant. The filter emits every exactly-collinear triple once per
// point playing the blocker role, so filtering candidates to live
// endpoint pairs loses nothing.
func CompleteVisibilityAmong(pts []geom.Point, alive []bool) bool {
	live := func(i int) bool { return alive == nil || alive[i] }
	eps := FromFloats(pts)
	// Exact distinctness of every live point against all points: a
	// survivor sharing a position with anything (alive or crashed) is a
	// collision, not a visibility question.
	for i := range eps {
		for j := i + 1; j < len(eps); j++ {
			if (live(i) || live(j)) && eps[i].Eq(eps[j]) {
				return false
			}
		}
	}
	for _, t := range geom.CollinearCandidates(pts, candidateTol) {
		if t.A == t.Blocker || t.B == t.Blocker {
			// Degenerate duplicate marker from the filter; distinctness
			// above already handled true duplicates.
			continue
		}
		if !live(t.A) || !live(t.B) {
			continue
		}
		if StrictlyBetween(eps[t.A], eps[t.B], eps[t.Blocker]) {
			return false
		}
	}
	return true
}

// CompleteVisibilityHybrid is CompleteVisibilityAmong with every point
// alive.
func CompleteVisibilityHybrid(pts []geom.Point) bool { return CompleteVisibilityAmong(pts, nil) }
