package geom_test

// Fuzz targets for the visibility and segment-intersection predicates.
//
// Inputs are decoded onto the int8 integer grid, where the float
// predicates are provably exact: coordinates up to 255 in magnitude
// make every nonzero cross product at least 1, far above Orient's
// scaled tolerance (Eps·L1-scale ≈ 5e-7), so the fuzz oracles — exact
// rational arithmetic and the O(n²) reference — must agree bit for
// bit. Any divergence is a real bug, never a tolerance artifact.

import (
	"slices"
	"testing"

	"luxvis/internal/exact"
	"luxvis/internal/geom"
)

// decodePoints reads consecutive (x, y) int8 pairs, capping the swarm
// at 24 points to keep the O(n³) naive oracle cheap per input.
func decodePoints(data []byte) []geom.Point {
	n := len(data) / 2
	if n > 24 {
		n = 24
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(int8(data[2*i])), float64(int8(data[2*i+1])))
	}
	return pts
}

// exactCV is the O(n³) exact referee of Complete Visibility: every pair
// of live points exactly distinct, with no point exactly strictly between
// them. A nil alive means all points are live.
func exactCV(pts []geom.Point, alive []bool) bool {
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if alive != nil && !(alive[i] && alive[j]) {
				continue
			}
			if !exactVisible(pts, i, j) {
				return false
			}
		}
	}
	return true
}

// exactVisible reports, exactly, whether points i and j see each other.
func exactVisible(pts []geom.Point, i, j int) bool {
	if i == j || same(pts[i], pts[j]) {
		return false
	}
	for k := range pts {
		if k != i && k != j && exact.StrictlyBetween(pts[i], pts[j], pts[k]) {
			return false
		}
	}
	return true
}

// distinct reports whether no two points coincide exactly.
func distinct(pts []geom.Point) bool {
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if same(pts[i], pts[j]) {
				return false
			}
		}
	}
	return true
}

// same reports exact coordinate equality.
func same(p, q geom.Point) bool { return p.X == q.X && p.Y == q.Y }

// FuzzVisibleAgainstNaive cross-checks the visibility implementations on
// every fuzzed configuration against the O(n²) reference VisibleFrom and
// the exact rational referee: the O(n log n) angular-sweep VisibleSetFast
// row by row and pair by pair, and both Complete Visibility decisions —
// Snapshot.CompleteVisibility and exact.CompleteVisibilityAmong — with
// all points live and, on inputs without coincident points, with every
// third point crashed (still obstructing).
func FuzzVisibleAgainstNaive(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0})             // collinear chain
	f.Add([]byte{0, 0, 10, 0, 5, 0, 5, 5})            // blocker + witness
	f.Add([]byte{0, 0, 0, 0, 1, 1})                   // coincident pair
	f.Add([]byte{251, 0, 5, 0, 0, 0, 0, 5, 0, 251})   // spokes through origin (-5..5)
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1}) // 3x2 grid
	f.Add([]byte{128, 128, 127, 127, 0, 0})           // extreme corners
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		if len(pts) < 2 {
			return
		}
		for i := range pts {
			fast := geom.VisibleSetFast(pts, i)
			if ref := geom.VisibleFrom(pts, i); !slices.Equal(fast, ref) {
				t.Fatalf("VisibleSetFast(%v, %d) = %v, reference VisibleFrom = %v",
					pts, i, fast, ref)
			}
			for j := range pts {
				got := slices.Contains(fast, j)
				if want := exactVisible(pts, i, j); got != want {
					t.Fatalf("VisibleSetFast(%v, %d) has %d: %v, exact referee says %v",
						pts, i, j, got, want)
				}
			}
		}
		kern := geom.NewKernel(1)
		defer kern.Close()
		snap := kern.NewSnapshot()
		masks := [][]bool{nil}
		if distinct(pts) {
			// A live robot colocated with a crashed one is a collision,
			// which the exact check rejects and the row read leaves to the
			// collision checks; only distinct inputs compare both.
			alive := make([]bool, len(pts))
			for i := range alive {
				alive[i] = i%3 != 0
			}
			masks = append(masks, alive)
		}
		for _, alive := range masks {
			want := exactCV(pts, alive)
			snap.Reset(pts)
			if got := snap.CompleteVisibility(alive); got != want {
				t.Fatalf("Snapshot.CompleteVisibility(%v, alive=%v) = %v, exact referee says %v",
					pts, alive, got, want)
			}
			if got := exact.CompleteVisibilityAmong(pts, alive); got != want {
				t.Fatalf("exact.CompleteVisibilityAmong(%v, alive=%v) = %v, exact referee says %v",
					pts, alive, got, want)
			}
		}
	})
}

// decodeSegments reads 8 int8 values as two segments.
func decodeSegments(data []byte) (geom.Segment, geom.Segment, bool) {
	if len(data) < 8 {
		return geom.Segment{}, geom.Segment{}, false
	}
	c := make([]float64, 8)
	for i := range c {
		c[i] = float64(int8(data[i]))
	}
	s := geom.Seg(geom.Pt(c[0], c[1]), geom.Pt(c[2], c[3]))
	u := geom.Seg(geom.Pt(c[4], c[5]), geom.Pt(c[6], c[7]))
	return s, u, true
}

// exactKind classifies the intersection of two int-grid segments with
// rational arithmetic, mirroring Segment.Intersect's four-way verdict.
func exactKind(s, u geom.Segment) geom.IntersectKind {
	a1, b1, a2, b2 := s.A, s.B, u.A, u.B
	switch {
	case exact.SegmentsProperlyCross(a1, b1, a2, b2):
		return geom.ProperCrossing
	case exact.SegmentsOverlap(a1, b1, a2, b2):
		return geom.Overlapping
	case exact.OnSegment(a1, b1, a2) || exact.OnSegment(a1, b1, b2) ||
		exact.OnSegment(a2, b2, a1) || exact.OnSegment(a2, b2, b1):
		return geom.Touching
	default:
		return geom.NoIntersection
	}
}

// FuzzSegmentCross cross-checks the float segment-intersection
// classifier against the exact rational one, plus its symmetry in the
// operands.
func FuzzSegmentCross(f *testing.F) {
	f.Add([]byte{0, 0, 10, 10, 0, 10, 10, 0})       // proper X crossing
	f.Add([]byte{0, 0, 10, 0, 5, 0, 5, 10})         // T-touch at interior
	f.Add([]byte{0, 0, 10, 0, 5, 0, 15, 0})         // collinear overlap
	f.Add([]byte{0, 0, 10, 0, 10, 0, 20, 10})       // shared endpoint
	f.Add([]byte{0, 0, 1, 1, 5, 5, 6, 6})           // collinear disjoint
	f.Add([]byte{3, 3, 3, 3, 0, 0, 10, 10})         // degenerate on interior
	f.Add([]byte{128, 128, 127, 127, 0, 0, 1, 255}) // extreme coordinates
	f.Fuzz(func(t *testing.T, data []byte) {
		s, u, ok := decodeSegments(data)
		if !ok {
			return
		}
		kind, _ := s.Intersect(u)
		if want := exactKind(s, u); kind != want {
			t.Fatalf("%v.Intersect(%v) = %v, exact referee says %v", s, u, kind, want)
		}
		if back, _ := u.Intersect(s); back != kind {
			t.Fatalf("Intersect is asymmetric: %v vs %v for %v, %v", kind, back, s, u)
		}
	})
}
