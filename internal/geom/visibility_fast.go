package geom

import (
	"math"
	"slices"
)

// This file implements the folded-direction collinearity scan behind
// the exact Complete Visibility check (exact.CompleteVisibilityAmong).
//
// The key observation: Complete Visibility fails iff some robot k has two
// other robots collinear with it — if i and j lie on one line through k,
// then either k is between them (k blocks the pair i,j) or one of i,j is
// between k and the other (it blocks that pair). So CV ⟺ for every k,
// the directions of all other robots from k, folded modulo π, are
// pairwise distinct. Folding and sorting gives O(n log n) per robot.

// angleFoldTol is the floor of the angular tolerance for treating two
// folded directions as collinear candidates. Candidates are confirmed
// with the cross-product predicate, so the tolerance only has to be loose
// enough to never miss a true collinearity — which is scale-dependent:
// AreCollinear accepts |cross| up to Eps·max(‖d_i‖₁, ‖d_j‖₁, 1), an
// angular acceptance that grows like Eps·diameter/dist² when points sit
// close together relative to the set's diameter. foldTol widens the
// tolerance accordingly per observer; this constant alone is only
// sufficient for well-spread configurations.
const angleFoldTol = 1e-6

// maxFoldTol caps the adaptive tolerance. An observer whose bound
// exceeds it has a neighbor so close that direction bucketing cannot
// separate anything reliably; scans then fall back to confirming all
// pairs for that observer (quadratic, but only for degenerate inputs).
const maxFoldTol = 0.1

// foldTol returns the angular clustering tolerance for an observer whose
// rays to the other points have minimum squared length minD2 and maximum
// L1 length maxL1. The bound dominates the angular acceptance of the
// Orient/AreCollinear predicates (≈ Eps·max(maxL1,1)/minD2, see Orient's
// scaled tolerance), with a 4× margin absorbing atan2 rounding and the
// fold. ok=false signals the degenerate fallback.
func foldTol(minD2, maxL1 float64) (tol float64, ok bool) {
	scale := maxL1
	if scale < 1 {
		scale = 1
	}
	bound := 4 * Eps * scale / minD2
	if bound > maxFoldTol || math.IsNaN(bound) {
		return 0, false
	}
	if bound < angleFoldTol {
		bound = angleFoldTol
	}
	return bound, true
}

// Triple records a candidate collinear triple (A, B, Blocker): Blocker
// may lie on the line through A and B (not necessarily between them).
type Triple struct {
	A, B, Blocker int
}

// CollinearCandidates returns, for each point k, every pair whose
// directions from k fold to the same angle within tol, as a Triple with
// k as Blocker, without any collinearity confirmation. A point that
// coincides with k is reported as the degenerate Triple{A: k, B: j,
// Blocker: j}. The exact checker uses it as a superset filter: every
// exactly-collinear triple has a folded-angle gap far below any
// reasonable tol, so confirming only the candidates with exact
// arithmetic decides Complete Visibility exactly. tol acts as a
// floor — per observer the scan widens it to the scale-aware foldTol
// bound, so the superset contract holds at any coordinate magnitude.
func CollinearCandidates(pts []Point, tol float64) []Triple {
	if tol <= 0 {
		tol = angleFoldTol
	}
	var out []Triple
	dirs := make([]dir, 0, len(pts))
	for k := range pts {
		dirs, out = collinearObserver(pts, k, tol, dirs, out)
	}
	return out
}

// dir is one folded direction from a scan observer.
type dir struct {
	phi float64 // pseudo-angle folded to [0, 2), i.e. direction mod π
	idx int
}

// collinearObserver scans a single observer k: it folds the directions of
// all other points modulo π, clusters them circularly (the runs near 0
// and near π chain across the fold, mirroring the ±π branch cut handling
// of visibleRow), and appends a Triple with k as Blocker to out for every
// pair within a run. Points coincident with k append the degenerate
// Triple{A: k, B: j, Blocker: j}, and an observer whose adaptive
// tolerance blows past maxFoldTol appends all its pairs. dirs is
// reusable caller-owned scratch.
func collinearObserver(pts []Point, k int, floorTol float64, dirs []dir, out []Triple) ([]dir, []Triple) {
	dirs = dirs[:0]
	minD2 := math.Inf(1)
	maxL1 := 0.0
	for j := range pts {
		if j == k {
			continue
		}
		d := pts[j].Sub(pts[k])
		d2 := d.Norm2()
		if d2 == 0 {
			// Coincident points: report as a degenerate pair so callers
			// fail the configuration.
			out = append(out, Triple{A: k, B: j, Blocker: j})
			continue
		}
		phi := pseudoAngle(d)
		if phi < 0 {
			phi += 2
		}
		if phi >= 2 {
			phi -= 2
		}
		dirs = append(dirs, dir{phi: phi, idx: j})
		if d2 < minD2 {
			minD2 = d2
		}
		if l1 := abs(d.X) + abs(d.Y); l1 > maxL1 {
			maxL1 = l1
		}
	}
	if len(dirs) < 2 {
		return dirs, out
	}
	tol, ok := foldTol(minD2, maxL1)
	if !ok {
		// Degenerate observer: bucketing is meaningless, emit every pair
		// and let the confirmation predicate decide.
		return dirs, appendPairs(out, dirs, k, 0, len(dirs))
	}
	if tol < floorTol {
		tol = floorTol
	}
	slices.SortFunc(dirs, func(a, b dir) int {
		switch {
		case a.phi < b.phi:
			return -1
		case a.phi > b.phi:
			return 1
		default:
			return 0
		}
	})
	// Cluster the sorted folded pseudo-angles into circular runs of
	// near-equal direction and emit every pair within a run:
	// adjacent-only comparison could miss a collinear pair separated by
	// a third, almost-collinear direction between them, and runs near 0
	// and near the fold boundary 2 are the same line, so clustering
	// wraps around the fold. Pseudo-angle gaps understate radian gaps
	// (by at most 2×), so a radian-derived tolerance only ever widens
	// the candidate set here.
	m := len(dirs)
	gapAfter := func(j int) float64 {
		if j == m-1 {
			return dirs[0].phi + 2 - dirs[m-1].phi
		}
		return dirs[j+1].phi - dirs[j].phi
	}
	start := -1
	for j := 0; j < m; j++ {
		if gapAfter(j) >= tol {
			start = (j + 1) % m
			break
		}
	}
	if start < 0 {
		// All folded directions chain into one run.
		return dirs, appendPairs(out, dirs, k, 0, m)
	}
	for consumed, lo := 0, start; consumed < m; {
		runLen := 1
		for consumed+runLen < m && gapAfter((lo+runLen-1)%m) < tol {
			runLen++
		}
		out = appendPairs(out, dirs, k, lo, runLen)
		consumed += runLen
		lo = (lo + runLen) % m
	}
	return dirs, out
}

// appendPairs appends every pair of the circular run of runLen
// directions starting at dirs[lo] to out, with k as Blocker.
func appendPairs(out []Triple, dirs []dir, k, lo, runLen int) []Triple {
	m := len(dirs)
	for a := 0; a < runLen; a++ {
		for b := a + 1; b < runLen; b++ {
			out = append(out, Triple{A: dirs[(lo+a)%m].idx, B: dirs[(lo+b)%m].idx, Blocker: k})
		}
	}
	return out
}
