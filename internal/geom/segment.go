package geom

import (
	"fmt"
	"math"
)

// Segment is the closed straight segment from A to B. Motion paths in the
// simulator are segments (robots move in straight lines in the LCM model),
// so segment intersection is the primitive behind the collision and
// path-crossing checks.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Len returns the length of the segment.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Dir returns the (non-normalized) direction vector B - A.
func (s Segment) Dir() Point { return s.B.Sub(s.A) }

// At returns the point A + t·(B-A).
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// Mid returns the midpoint of the segment.
func (s Segment) Mid() Point { return s.A.Mid(s.B) }

// String formats the segment for diagnostics.
func (s Segment) String() string { return fmt.Sprintf("[%v -> %v]", s.A, s.B) }

// ClosestPoint returns the point of the closed segment nearest to p, and
// the clamped parameter t ∈ [0,1] at which it occurs.
func (s Segment) ClosestPoint(p Point) (Point, float64) {
	d := s.Dir()
	n2 := d.Norm2()
	if n2 == 0 {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(d) / n2
	t = math.Max(0, math.Min(1, t))
	return s.At(t), t
}

// Dist returns the distance from p to the closed segment.
func (s Segment) Dist(p Point) float64 {
	q, _ := s.ClosestPoint(p)
	return p.Dist(q)
}

// Contains reports whether p lies on the closed segment within tolerance.
func (s Segment) Contains(p Point) bool { return s.Dist(p) <= Eps }

// IntersectKind classifies how two segments meet.
type IntersectKind int

const (
	// NoIntersection: the closed segments are disjoint.
	NoIntersection IntersectKind = iota
	// ProperCrossing: the segments cross at a single point interior to
	// both. This is the "paths cross" event the paper forbids.
	ProperCrossing
	// Touching: the segments meet at a single point that is an endpoint
	// of at least one of them.
	Touching
	// Overlapping: the segments are collinear and share more than one
	// point.
	Overlapping
)

func (k IntersectKind) String() string {
	switch k {
	case NoIntersection:
		return "none"
	case ProperCrossing:
		return "proper-crossing"
	case Touching:
		return "touching"
	case Overlapping:
		return "overlapping"
	default:
		return fmt.Sprintf("IntersectKind(%d)", int(k))
	}
}

// Intersect classifies the intersection of segments s and u and, when the
// intersection is a single point, returns it. For Overlapping the returned
// point is one point of the shared portion.
func (s Segment) Intersect(u Segment) (IntersectKind, Point) {
	o1 := Orient(s.A, s.B, u.A)
	o2 := Orient(s.A, s.B, u.B)
	o3 := Orient(u.A, u.B, s.A)
	o4 := Orient(u.A, u.B, s.B)

	if o1 != o2 && o3 != o4 && o1 != Collinear && o2 != Collinear &&
		o3 != Collinear && o4 != Collinear {
		// Strict crossing: compute the point by line-line intersection.
		p, ok := lineLineIntersection(s.A, s.B, u.A, u.B)
		if !ok {
			// Numerically near-parallel despite the orientation test;
			// fall back to the midpoint of the closest approach.
			p = s.Mid()
		}
		return ProperCrossing, p
	}

	// Collect endpoint-on-segment contacts.
	type contact struct{ p Point }
	var contacts []contact
	if OnSegment(s.A, s.B, u.A) {
		contacts = append(contacts, contact{u.A})
	}
	if OnSegment(s.A, s.B, u.B) {
		contacts = append(contacts, contact{u.B})
	}
	if OnSegment(u.A, u.B, s.A) {
		contacts = append(contacts, contact{s.A})
	}
	if OnSegment(u.A, u.B, s.B) {
		contacts = append(contacts, contact{s.B})
	}
	if len(contacts) == 0 {
		return NoIntersection, Point{}
	}
	// Deduplicate coincident contact points.
	uniq := contacts[:1]
	for _, c := range contacts[1:] {
		dup := false
		for _, e := range uniq {
			if e.p.Eq(c.p) {
				dup = true
				break
			}
		}
		if !dup {
			uniq = append(uniq, c)
		}
	}
	if len(uniq) == 1 {
		return Touching, uniq[0].p
	}
	return Overlapping, uniq[0].p
}

// lineLineIntersection intersects the infinite lines through (a,b) and
// (c,d). ok is false when the lines are parallel within tolerance.
func lineLineIntersection(a, b, c, d Point) (Point, bool) {
	r := b.Sub(a)
	s := d.Sub(c)
	den := r.Cross(s)
	if math.Abs(den) <= Eps*math.Max(1, r.Norm()*s.Norm()) {
		return Point{}, false
	}
	t := c.Sub(a).Cross(s) / den
	return a.Add(r.Mul(t)), true
}
