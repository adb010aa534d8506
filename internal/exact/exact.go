// Package exact decides the safety-critical geometric predicates of the
// luxvis checker — orientation, betweenness, segment crossing and
// overlap, and the Complete Visibility predicate — exactly, for any
// finite float64 input.
//
// Every orientation is first evaluated in float64 under Shewchuk's
// certified error bound for orient2d ("Adaptive Precision
// Floating-Point Arithmetic and Fast Robust Geometric Predicates",
// 1997). The float sign is returned only when the bound proves it
// correct; when the filter abstains, the orientation is recomputed over
// math/big rationals, to which every finite float64 converts
// losslessly. Everything else the predicates do compares input
// coordinates, and float64 order and equality of finite values are
// exactly their rational order and equality (with −0 = 0 in both), so
// no step rounds.
//
// The simulation engine makes its *decisions* with the float kernel in
// internal/geom (the algorithms keep clear of degeneracies by
// construction) but *verifies* collision-freedom and the terminal
// Complete Visibility predicate with this package, so a reported zero
// collision count is a mathematical statement about the executed motion
// segments, not a tolerance artifact.
package exact

import (
	"math"
	"math/big"

	"luxvis/internal/geom"
)

// ccwErrBoundA is Shewchuk's static error bound for orient2d, (3+16ε)ε
// with ε = 2⁻⁵³ the unit roundoff of float64: when the float
// determinant exceeds ccwErrBoundA·(|detl|+|detr|) in magnitude, its
// sign is the exact sign. The constant is exactly representable.
const ccwErrBoundA = (3 + 16*0x1p-53) * 0x1p-53

// minDetSum is the smallest |detl|+|detr| the filter trusts. The bound
// is relative and assumes no product underflowed; below 2⁻⁹⁰⁰ a product
// may have, while above it the at most 2⁻¹⁰⁷⁴ an underflowing partner
// product can lose sits far below the bound's own ε² slack.
const minDetSum = 0x1p-900

// orientFilter returns the sign of (b-a)×(c-a) when the float64
// evaluation certifies it, and ok=false when the exact fallback must
// decide: the bound does not separate the determinant from zero, or
// underflow or overflow voids the bound.
func orientFilter(a, b, c geom.Point) (sign int, ok bool) {
	// The explicit conversions round each product on its own: the Go
	// spec lets a compiler fuse x*y - z*w into an FMA otherwise, and the
	// bound does not cover a fused result.
	detl := float64((b.X - a.X) * (c.Y - a.Y))
	detr := float64((b.Y - a.Y) * (c.X - a.X))
	det := detl - detr
	detsum := math.Abs(detl) + math.Abs(detr)
	if !(detsum >= minDetSum) || math.IsInf(detsum, 1) { // !(>=) also catches NaN
		return 0, false
	}
	bound := ccwErrBoundA * detsum
	switch {
	case det > bound:
		return 1, true
	case -det > bound:
		return -1, true
	}
	return 0, false
}

// OrientSign returns the exact sign of the cross product (b-a)×(c-a):
// +1 for a left turn, -1 for a right turn, 0 for exactly collinear. It
// allocates only when the float filter abstains. It panics on NaN/Inf
// coordinates — those are engine bugs, not data.
func OrientSign(a, b, c geom.Point) int {
	if s, ok := orientFilter(a, b, c); ok {
		return s
	}
	return orientRat(fromFloat(a), fromFloat(b), fromFloat(c))
}

// Collinear reports exact collinearity of a, b, c.
func Collinear(a, b, c geom.Point) bool { return OrientSign(a, b, c) == 0 }

// StrictlyBetween reports whether m lies exactly on the open segment
// (a, b).
func StrictlyBetween(a, b, m geom.Point) bool {
	if !Collinear(a, b, m) {
		return false
	}
	// On the line through a and b, m is strictly inside exactly when its
	// coordinate is strictly inside on an axis along which a and b
	// differ; for a = b the open segment is empty and so is the range.
	if a.X < b.X || b.X < a.X {
		return inOpen(a.X, b.X, m.X)
	}
	return inOpen(a.Y, b.Y, m.Y)
}

// OnSegment reports whether m lies exactly on the closed segment [a, b].
func OnSegment(a, b, m geom.Point) bool {
	return same(m, a) || same(m, b) || StrictlyBetween(a, b, m)
}

// SegmentsProperlyCross reports, exactly, whether the open segments
// (a1,b1) and (a2,b2) cross at a point interior to both. Shared endpoints
// and collinear overlaps are not proper crossings (the engine classifies
// those separately).
func SegmentsProperlyCross(a1, b1, a2, b2 geom.Point) bool {
	o1 := OrientSign(a1, b1, a2)
	o2 := OrientSign(a1, b1, b2)
	o3 := OrientSign(a2, b2, a1)
	o4 := OrientSign(a2, b2, b1)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// SegmentsOverlap reports, exactly, whether two segments are collinear
// and share more than a single point.
func SegmentsOverlap(a1, b1, a2, b2 geom.Point) bool {
	if OrientSign(a1, b1, a2) != 0 || OrientSign(a1, b1, b2) != 0 {
		return false
	}
	// Both segments lie on the line through a1 and b1, and projecting
	// onto an axis along which a1 and b1 differ is injective on it. A
	// point-sized first segment projects to a point and shares at most
	// that point.
	if a1.X < b1.X || b1.X < a1.X {
		return overlapOpen(a1.X, b1.X, a2.X, b2.X)
	}
	return overlapOpen(a1.Y, b1.Y, a2.Y, b2.Y)
}

// same reports exact coordinate equality.
func same(p, q geom.Point) bool {
	//lint:allow floateq exact equality of finite floats is exact rational equality
	return p.X == q.X && p.Y == q.Y
}

// inOpen reports whether t lies strictly between p and q.
func inOpen(p, q, t float64) bool {
	if q < p {
		p, q = q, p
	}
	return p < t && t < q
}

// overlapOpen reports whether the ranges [p1,q1] and [p2,q2] share an
// interval of positive length.
func overlapOpen(p1, q1, p2, q2 float64) bool {
	if q1 < p1 {
		p1, q1 = q1, p1
	}
	if q2 < p2 {
		p2, q2 = q2, p2
	}
	return math.Max(p1, p2) < math.Min(q1, q2)
}

// point is a point with exact rational coordinates: the representation
// of the filter's fallback.
type point struct {
	x, y *big.Rat
}

// fromFloat converts a float kernel point losslessly (every finite
// float64 is a rational). It panics on NaN/Inf coordinates.
func fromFloat(p geom.Point) point {
	if !p.IsFinite() {
		panic("exact: non-finite coordinate")
	}
	return point{x: new(big.Rat).SetFloat64(p.X), y: new(big.Rat).SetFloat64(p.Y)}
}

// orientRat is OrientSign over rationals.
func orientRat(a, b, c point) int {
	abx := new(big.Rat).Sub(b.x, a.x)
	aby := new(big.Rat).Sub(b.y, a.y)
	acx := new(big.Rat).Sub(c.x, a.x)
	acy := new(big.Rat).Sub(c.y, a.y)
	return abx.Mul(abx, acy).Cmp(aby.Mul(aby, acx))
}
