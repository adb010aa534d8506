package geom

// The float reference predicates the visibility tests compare the
// production row and Complete Visibility checks against. They follow the
// model's definition literally — robot k blocks i from j iff k lies
// strictly inside the open segment (i, j) — with no bucketing, sorting
// or row reuse.

// visible reports whether points i and j of pts see each other: no third
// point lies strictly between them. Coincident points never see each
// other.
func visible(pts []Point, i, j int) bool {
	if i == j || pts[i].Eq(pts[j]) {
		return false
	}
	for k, p := range pts {
		if k != i && k != j && StrictlyBetween(pts[i], pts[j], p) {
			return false
		}
	}
	return true
}

// VisibleFrom returns the indices of all points visible from point i, in
// increasing index order: the O(n²) reference for VisibleSetFast and the
// snapshot rows. Exported for the external test package.
func VisibleFrom(pts []Point, i int) []int {
	var out []int
	for j := range pts {
		if visible(pts, i, j) {
			out = append(out, j)
		}
	}
	return out
}

// CompleteVisibilityNaive is the O(n³) reference for
// Snapshot.CompleteVisibility: every pair of live points mutually
// visible, every point obstructing; a nil alive means all points are
// live. Exported for the external test package.
func CompleteVisibilityNaive(pts []Point, alive []bool) bool {
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if (alive == nil || alive[i] && alive[j]) && !visible(pts, i, j) {
				return false
			}
		}
	}
	return true
}
