package geom

// This file holds the open-corridor predicate of the robots with lights
// model. The visibility predicates proper are in visible_set.go (one
// row) and viskernel.go (all rows, and Complete Visibility read from
// them): robot k blocks i from j iff k lies strictly inside the open
// segment (i, j).

// PathClear reports whether the open corridor from `from` to `to` is free
// of every point in obstacles: no obstacle lies strictly inside the
// segment and no obstacle coincides with the destination. Points within
// margin of the segment (but not collinear) also fail the check when
// margin > 0 — the algorithms use a small margin to keep moving robots
// from brushing past stationary ones.
func PathClear(from, to Point, obstacles []Point, margin float64) bool {
	seg := Seg(from, to)
	for _, p := range obstacles {
		if p.Eq(from) {
			continue
		}
		if p.Eq(to) {
			return false
		}
		if StrictlyBetween(from, to, p) {
			return false
		}
		if margin > 0 && seg.Dist(p) < margin {
			return false
		}
	}
	return true
}
