package geom

import "math"

// Hull is the convex hull of a point set. Corners holds the strict hull
// corners in counterclockwise order, with no three consecutive corners
// collinear; collinear boundary points are deliberately excluded from
// Corners and classified as edge points instead, because the Complete
// Visibility algorithms treat corners and edge robots differently.
type Hull struct {
	// Corners are the strict hull vertices in CCW order.
	Corners []Point
}

// HullScratch holds the buffers of a convex hull computation so a caller
// that builds many hulls (one per Compute, say) allocates them once. The
// zero value is ready to use. A HullScratch is not safe for concurrent
// use.
type HullScratch struct {
	sorted []Point
	chain  []Point
}

// ConvexHull computes the convex hull of pts using Andrew's monotone
// chain. Duplicate points are tolerated. For fewer than three distinct
// points the hull degenerates: two corners for a segment, one for a point,
// zero for an empty input. The returned corners are owned by the caller;
// see HullScratch.ConvexHull for the allocation-free form.
func ConvexHull(pts []Point) Hull {
	var sc HullScratch
	return sc.ConvexHull(pts)
}

// ConvexHull is the package-level ConvexHull on the scratch's buffers:
// once the buffers have grown to the input size it allocates nothing.
// The returned Corners alias the scratch and are valid only until its
// next ConvexHull call.
func (sc *HullScratch) ConvexHull(pts []Point) Hull {
	p := append(sc.sorted[:0], pts...)
	sc.sorted = p
	sortPoints(p)
	// Remove duplicates.
	uniq := p[:0]
	for _, q := range p {
		if len(uniq) == 0 || !uniq[len(uniq)-1].Eq(q) {
			uniq = append(uniq, q)
		}
	}
	p = uniq
	n := len(p)
	hull := sc.chain[:0]
	switch {
	case n == 0:
		return Hull{}
	case n == 1:
		hull = append(hull, p[0])
	case AllCollinear(p):
		lo, hi := LineExtremes(p)
		hull = append(hull, p[lo])
		if lo != hi {
			hull = append(hull, p[hi])
		}
	default:
		// Build lower then upper chain, keeping only strict left turns
		// so that collinear boundary points are dropped from the corner
		// list.
		for _, q := range p {
			for len(hull) >= 2 && Orient(hull[len(hull)-2], hull[len(hull)-1], q) != CCW {
				hull = hull[:len(hull)-1]
			}
			hull = append(hull, q)
		}
		lower := len(hull) + 1
		for i := n - 2; i >= 0; i-- {
			q := p[i]
			for len(hull) >= lower && Orient(hull[len(hull)-2], hull[len(hull)-1], q) != CCW {
				hull = hull[:len(hull)-1]
			}
			hull = append(hull, q)
		}
		hull = hull[:len(hull)-1]
	}
	sc.chain = hull
	return Hull{Corners: hull}
}

// CornerCertified reports, in O(V) and without building the hull,
// that ConvexHull of self and others keeps self as a corner, so that
// ConvexHull(append([]Point{self}, others...)).Classify(self) is
// HullCorner. A false result proves nothing: the caller builds the hull.
// LogVis asks only about views that are not all-collinear, but the proof
// below does not assume that.
//
// Soundness. Split the others into B, the points Less than self, and A,
// the rest. No point is Eq to self (checked first; the distance bound
// below implies it too), so self survives the hull's deduplication and
// sits between B and A in its sorted order. Directions from self to A lie in the half-open
// half-plane of angles (-π/2, π/2], directions to B in (π/2, 3π/2], so
// one pass finds each set's clockwise-most and counterclockwise-most
// direction by cross-product comparison.
//
//   - Both sides non-empty. The monotone chain pops self only from the
//     top of a chain, against a predecessor b ∈ B and a next point
//     a ∈ A (lower chain, Orient(b, self, a) != CCW) or a predecessor
//     a ∈ A and a next b ∈ B (upper chain, Orient(a, self, b) != CCW).
//     With u = a−self and w = b−self, Cross2(b, self, a) = u×w and
//     Cross2(a, self, b) = −u×w. Over all pairs the angle from u to w
//     ranges between the angles of the pairs (aLo, bHi) and (aHi, bLo);
//     if both sines are positive every pair's angle is in (0, π), and
//     by concavity of sin there u×w ≥ |u||w|·sinMin ≥ d²·sinMin, with
//     d the nearest distance. Orient's band is Eps·max(1, L1 extent of
//     its triple) ≤ Eps·max(1, D1), D1 the L1 extent of the bounding
//     box, so every lower-chain test is CCW and self stays in the lower
//     chain, which the hull keeps whole. Both sines negative is the
//     mirror image on the upper chain.
//   - One side empty. Self is the first (or last) point of the sorted,
//     deduplicated input, which the monotone chain always keeps; it
//     remains to rule out the all-collinear branch. The witness is the
//     triple of self and that side's two extreme directions, with cross
//     product at least d²·sinMin where sinMin is the sine between them.
//
// In both cases the all-collinear branch is ruled out too: if every
// point were within Orient's band of the line AllCollinear tests
// against, every triple's cross product would be at most
// 8√2·Eps·max(1, D1), and moving two of its points by deduplication
// (by at most √2·Eps each) changes that by at most 2√2·Eps·max(1, D1).
// The certificate therefore demands d²·(sinMin − 1e-12) above
// 16·Eps·max(1, D1) + 1e-14·D1²: the factor 16 covers 10√2, the 1e-12
// covers the rounding of the sines and of the extreme-direction
// choice (a few ulps), and the D1² term covers the rounding of
// Cross2 itself at any coordinate scale. NaN or infinite input fails
// the final comparison.
func CornerCertified(self Point, others []Point) bool {
	if len(others) < 2 {
		return false
	}
	var aLo, aHi, bLo, bHi Point // zero means "no direction yet"
	haveA, haveB := false, false
	minX, maxX, minY, maxY := self.X, self.X, self.Y, self.Y
	near := math.Inf(1)
	for _, q := range others {
		if q.Eq(self) {
			return false
		}
		minX, maxX = math.Min(minX, q.X), math.Max(maxX, q.X)
		minY, maxY = math.Min(minY, q.Y), math.Max(maxY, q.Y)
		d := q.Sub(self)
		if d2 := d.Norm2(); d2 < near {
			near = d2
		}
		if q.Less(self) {
			if !haveB {
				bLo, bHi, haveB = d, d, true
				continue
			}
			if bLo.Cross(d) < 0 {
				bLo = d
			}
			if bHi.Cross(d) > 0 {
				bHi = d
			}
			continue
		}
		if !haveA {
			aLo, aHi, haveA = d, d, true
			continue
		}
		if aLo.Cross(d) < 0 {
			aLo = d
		}
		if aHi.Cross(d) > 0 {
			aHi = d
		}
	}
	var sinMin float64
	switch {
	case haveA && haveB:
		s1, s2 := sine(aLo, bHi), sine(aHi, bLo)
		if s1 < 0 && s2 < 0 {
			s1, s2 = -s1, -s2
		}
		sinMin = math.Min(s1, s2)
	case haveA:
		sinMin = sine(aLo, aHi)
	default:
		sinMin = sine(bLo, bHi)
	}
	d1 := (maxX - minX) + (maxY - minY)
	return near*(sinMin-1e-12) > 16*Eps*math.Max(1, d1)+1e-14*d1*d1
}

// sine returns the sine of the angle from u to v.
func sine(u, v Point) float64 {
	return u.Cross(v) / math.Sqrt(u.Norm2()*v.Norm2())
}

// sortPoints sorts p into Less order. It is the hull's hot loop, so it
// calls Less directly instead of through a comparison closure:
// quicksort with a median-of-three pivot, insertion sort for short
// runs, and heapsort once the recursion is deeper than 2·log₂ n. Points
// equal under Less are equal values, so the result is the same sequence
// any correct sort produces.
func sortPoints(p []Point) {
	depth := 0
	for n := len(p); n > 0; n >>= 1 {
		depth += 2
	}
	quickSortPoints(p, depth)
}

func quickSortPoints(p []Point, depth int) {
	for len(p) > 12 {
		if depth == 0 {
			heapSortPoints(p)
			return
		}
		depth--
		// Median of three to p[0], then Hoare partition around it.
		m, last := len(p)/2, len(p)-1
		if p[m].Less(p[0]) {
			p[m], p[0] = p[0], p[m]
		}
		if p[last].Less(p[0]) {
			p[last], p[0] = p[0], p[last]
		}
		if p[last].Less(p[m]) {
			p[last], p[m] = p[m], p[last]
		}
		p[0], p[m] = p[m], p[0]
		pivot := p[0]
		i, j := 1, last
		for {
			for i <= j && p[i].Less(pivot) {
				i++
			}
			for i <= j && pivot.Less(p[j]) {
				j--
			}
			if i >= j {
				break
			}
			p[i], p[j] = p[j], p[i]
			i++
			j--
		}
		p[0], p[j] = p[j], p[0]
		// Recurse into the smaller side, loop on the larger.
		if j < len(p)-1-j {
			quickSortPoints(p[:j], depth)
			p = p[j+1:]
		} else {
			quickSortPoints(p[j+1:], depth)
			p = p[:j]
		}
	}
	for i := 1; i < len(p); i++ {
		for k := i; k > 0 && p[k].Less(p[k-1]); k-- {
			p[k], p[k-1] = p[k-1], p[k]
		}
	}
}

func heapSortPoints(p []Point) {
	siftDown := func(root, n int) {
		for {
			child := 2*root + 1
			if child >= n {
				return
			}
			if child+1 < n && p[child].Less(p[child+1]) {
				child++
			}
			if !p[root].Less(p[child]) {
				return
			}
			p[root], p[child] = p[child], p[root]
			root = child
		}
	}
	for i := len(p)/2 - 1; i >= 0; i-- {
		siftDown(i, len(p))
	}
	for i := len(p) - 1; i > 0; i-- {
		p[0], p[i] = p[i], p[0]
		siftDown(0, i)
	}
}

// Degenerate reports whether the hull has fewer than three corners (the
// point set was empty, a single point, or fully collinear).
func (h Hull) Degenerate() bool { return len(h.Corners) < 3 }

// Area returns the (positive) area enclosed by the hull, zero for
// degenerate hulls.
func (h Hull) Area() float64 {
	if h.Degenerate() {
		return 0
	}
	var a float64
	n := len(h.Corners)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += h.Corners[i].Cross(h.Corners[j])
	}
	if a < 0 {
		a = -a
	}
	return a / 2
}

// Perimeter returns the total boundary length of the hull.
func (h Hull) Perimeter() float64 {
	n := len(h.Corners)
	if n < 2 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += h.Corners[i].Dist(h.Corners[(i+1)%n])
	}
	return s
}

// PointClass classifies a point relative to a convex hull.
type PointClass int

const (
	// HullCorner: the point is a strict corner of the hull.
	HullCorner PointClass = iota
	// HullEdge: the point lies on the hull boundary strictly between two
	// corners.
	HullEdge
	// HullInterior: the point lies strictly inside the hull.
	HullInterior
	// HullOutside: the point lies strictly outside the hull.
	HullOutside
)

func (c PointClass) String() string {
	switch c {
	case HullCorner:
		return "corner"
	case HullEdge:
		return "edge"
	case HullInterior:
		return "interior"
	case HullOutside:
		return "outside"
	default:
		return "unknown"
	}
}

// Classify locates p relative to the hull. For degenerate hulls (all
// points collinear) corners are the segment endpoints, edge points are the
// interior of the segment, and everything off the line is outside.
func (h Hull) Classify(p Point) PointClass {
	n := len(h.Corners)
	switch n {
	case 0:
		return HullOutside
	case 1:
		if h.Corners[0].Eq(p) {
			return HullCorner
		}
		return HullOutside
	case 2:
		a, b := h.Corners[0], h.Corners[1]
		if a.Eq(p) || b.Eq(p) {
			return HullCorner
		}
		if StrictlyBetween(a, b, p) {
			return HullEdge
		}
		return HullOutside
	}
	for _, c := range h.Corners {
		if c.Eq(p) {
			return HullCorner
		}
	}
	onEdge := false
	for i := 0; i < n; i++ {
		a, b := h.Corners[i], h.Corners[(i+1)%n]
		switch Orient(a, b, p) {
		case CW:
			return HullOutside
		case Collinear:
			if OnSegment(a, b, p) {
				onEdge = true
			} else {
				return HullOutside
			}
		case CCW:
			// strictly inside this edge's half-plane; keep going
		}
	}
	if onEdge {
		return HullEdge
	}
	return HullInterior
}

// EdgeOf returns the hull edge (corner pair, CCW order) whose closed
// segment contains p, for points classified HullEdge or HullCorner. ok is
// false when p is not on the boundary.
func (h Hull) EdgeOf(p Point) (a, b Point, ok bool) {
	n := len(h.Corners)
	if n == 2 {
		if OnSegment(h.Corners[0], h.Corners[1], p) {
			return h.Corners[0], h.Corners[1], true
		}
		return Point{}, Point{}, false
	}
	for i := 0; i < n; i++ {
		a, b := h.Corners[i], h.Corners[(i+1)%n]
		if OnSegment(a, b, p) {
			return a, b, true
		}
	}
	return Point{}, Point{}, false
}

// Contains reports whether p lies in the closed hull region.
func (h Hull) Contains(p Point) bool {
	c := h.Classify(p)
	return c == HullCorner || c == HullEdge || c == HullInterior
}

// StrictlyConvexPosition reports whether every point of pts is a strict
// corner of the hull of pts and all points are distinct. Points in
// strictly convex position are pairwise mutually visible, which is the
// terminal configuration of the Complete Visibility algorithms.
func StrictlyConvexPosition(pts []Point) bool {
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Eq(pts[j]) {
				return false
			}
		}
	}
	if len(pts) <= 2 {
		return true
	}
	h := ConvexHull(pts)
	if h.Degenerate() {
		// Three or more collinear points are never strictly convex.
		return false
	}
	if len(h.Corners) != len(pts) {
		return false
	}
	return true
}
