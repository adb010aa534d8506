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
// StrictlyBetween confirms each exactly, with big.Rat arithmetic only
// where its certified float filter abstains. A confirmed collinear
// triple refutes CV only when its two endpoints are both alive and its
// blocker lies strictly between them — a dead endpoint's blocked
// sightline is irrelevant. The filter emits every exactly-collinear
// triple once per point playing the blocker role, so filtering
// candidates to live endpoint pairs loses nothing. It panics on NaN/Inf
// coordinates — those are engine bugs, not data.
func CompleteVisibilityAmong(pts []geom.Point, alive []bool) bool {
	live := func(i int) bool { return alive == nil || alive[i] }
	for _, p := range pts {
		if !p.IsFinite() {
			panic("exact: non-finite coordinate")
		}
	}
	// Exact distinctness of every live point against all points: a
	// survivor sharing a position with anything (alive or crashed) is a
	// collision, not a visibility question.
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if (live(i) || live(j)) && same(pts[i], pts[j]) {
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
		if StrictlyBetween(pts[t.A], pts[t.B], pts[t.Blocker]) {
			return false
		}
	}
	return true
}

// CompleteVisibilityHybrid is CompleteVisibilityAmong with every point
// alive.
func CompleteVisibilityHybrid(pts []geom.Point) bool { return CompleteVisibilityAmong(pts, nil) }
