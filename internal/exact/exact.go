// Package exact re-implements the safety-critical geometric predicates of
// the luxvis checker over math/big rationals. Every float64 coordinate is
// converted losslessly to a big.Rat, so orientation, betweenness, segment
// intersection and the Complete Visibility predicate computed here are
// free of rounding error for any finite float64 input.
//
// The simulation engine makes its *decisions* with the float kernel in
// internal/geom (the algorithms keep clear of degeneracies by
// construction) but *verifies* collision-freedom and the terminal
// Complete Visibility predicate with this package, so a reported zero
// collision count is a mathematical statement about the executed motion
// segments, not a tolerance artifact.
package exact

import (
	"math/big"

	"luxvis/internal/geom"
)

// Point is a point in the plane with exact rational coordinates.
type Point struct {
	X, Y *big.Rat
}

// FromFloat converts a float kernel point losslessly (every finite
// float64 is a rational). It panics on NaN/Inf coordinates — those are
// engine bugs, not data.
func FromFloat(p geom.Point) Point {
	if !p.IsFinite() {
		panic("exact: non-finite coordinate")
	}
	x := new(big.Rat).SetFloat64(p.X)
	y := new(big.Rat).SetFloat64(p.Y)
	return Point{X: x, Y: y}
}

// FromFloats converts a slice of float points.
func FromFloats(ps []geom.Point) []Point {
	out := make([]Point, len(ps))
	for i, p := range ps {
		out[i] = FromFloat(p)
	}
	return out
}

// Eq reports exact coordinate equality.
func (p Point) Eq(q Point) bool { return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0 }

// sub returns p - q componentwise.
func sub(p, q Point) (dx, dy *big.Rat) {
	dx = new(big.Rat).Sub(p.X, q.X)
	dy = new(big.Rat).Sub(p.Y, q.Y)
	return dx, dy
}

// OrientSign returns the exact sign of the cross product (b-a)×(c-a):
// +1 for a left turn, -1 for a right turn, 0 for exactly collinear.
func OrientSign(a, b, c Point) int {
	abx, aby := sub(b, a)
	acx, acy := sub(c, a)
	lhs := new(big.Rat).Mul(abx, acy)
	rhs := new(big.Rat).Mul(aby, acx)
	return lhs.Cmp(rhs)
}

// Collinear reports exact collinearity of a, b, c.
func Collinear(a, b, c Point) bool { return OrientSign(a, b, c) == 0 }

// StrictlyBetween reports whether m lies exactly on the open segment
// (a, b): collinear and strictly inside the coordinate range on the
// dominant axis.
func StrictlyBetween(a, b, m Point) bool {
	if !Collinear(a, b, m) {
		return false
	}
	dx := new(big.Rat).Sub(b.X, a.X)
	dy := new(big.Rat).Sub(b.Y, a.Y)
	useX := absCmp(dx, dy) >= 0
	var ta, tb, tm *big.Rat
	if useX {
		ta, tb, tm = a.X, b.X, m.X
	} else {
		ta, tb, tm = a.Y, b.Y, m.Y
	}
	lo, hi := ta, tb
	if lo.Cmp(hi) > 0 {
		lo, hi = hi, lo
	}
	return tm.Cmp(lo) > 0 && tm.Cmp(hi) < 0
}

// OnSegment reports whether m lies exactly on the closed segment [a, b].
func OnSegment(a, b, m Point) bool {
	if m.Eq(a) || m.Eq(b) {
		return true
	}
	return StrictlyBetween(a, b, m)
}

// absCmp compares |x| with |y|.
func absCmp(x, y *big.Rat) int {
	ax := new(big.Rat).Abs(x)
	ay := new(big.Rat).Abs(y)
	return ax.Cmp(ay)
}

// SegmentsProperlyCross reports, exactly, whether the open segments
// (a1,b1) and (a2,b2) cross at a point interior to both. Shared endpoints
// and collinear overlaps are not proper crossings (the engine classifies
// those separately).
func SegmentsProperlyCross(a1, b1, a2, b2 Point) bool {
	o1 := OrientSign(a1, b1, a2)
	o2 := OrientSign(a1, b1, b2)
	o3 := OrientSign(a2, b2, a1)
	o4 := OrientSign(a2, b2, b1)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// SegmentsOverlap reports, exactly, whether two segments are collinear
// and share more than a single point.
func SegmentsOverlap(a1, b1, a2, b2 Point) bool {
	if OrientSign(a1, b1, a2) != 0 || OrientSign(a1, b1, b2) != 0 {
		return false
	}
	// Both segments lie on one line. Compare ranges on the dominant axis
	// of the combined direction.
	dx := new(big.Rat).Sub(b1.X, a1.X)
	dy := new(big.Rat).Sub(b1.Y, a1.Y)
	if dx.Sign() == 0 && dy.Sign() == 0 {
		dx = new(big.Rat).Sub(b2.X, a2.X)
		dy = new(big.Rat).Sub(b2.Y, a2.Y)
	}
	useX := absCmp(dx, dy) >= 0
	coord := func(p Point) *big.Rat {
		if useX {
			return p.X
		}
		return p.Y
	}
	lo1, hi1 := coord(a1), coord(b1)
	if lo1.Cmp(hi1) > 0 {
		lo1, hi1 = hi1, lo1
	}
	lo2, hi2 := coord(a2), coord(b2)
	if lo2.Cmp(hi2) > 0 {
		lo2, hi2 = hi2, lo2
	}
	// Overlap of positive length: max(lo) < min(hi).
	maxLo, minHi := lo1, hi1
	if lo2.Cmp(maxLo) > 0 {
		maxLo = lo2
	}
	if hi2.Cmp(minHi) < 0 {
		minHi = hi2
	}
	return maxLo.Cmp(minHi) < 0
}
