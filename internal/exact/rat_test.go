package exact

import (
	"math/big"

	"luxvis/internal/geom"
)

// The rational referees: every predicate computed entirely over big.Rat,
// with no float filter and no float comparison. The differential test,
// FuzzOrientFilter and bruteAmong hold the filtered predicates to them.

func fromFloats(ps []geom.Point) []point {
	out := make([]point, len(ps))
	for i, p := range ps {
		out[i] = fromFloat(p)
	}
	return out
}

func (p point) eq(q point) bool { return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0 }

// absCmp compares |x| with |y|.
func absCmp(x, y *big.Rat) int {
	return new(big.Rat).Abs(x).Cmp(new(big.Rat).Abs(y))
}

// strictlyBetweenRat: collinear and strictly inside the coordinate
// range on the dominant axis of b-a.
func strictlyBetweenRat(a, b, m point) bool {
	if orientRat(a, b, m) != 0 {
		return false
	}
	dx := new(big.Rat).Sub(b.x, a.x)
	dy := new(big.Rat).Sub(b.y, a.y)
	ta, tb, tm := a.y, b.y, m.y
	if absCmp(dx, dy) >= 0 {
		ta, tb, tm = a.x, b.x, m.x
	}
	if ta.Cmp(tb) > 0 {
		ta, tb = tb, ta
	}
	return tm.Cmp(ta) > 0 && tm.Cmp(tb) < 0
}

func onSegmentRat(a, b, m point) bool {
	return m.eq(a) || m.eq(b) || strictlyBetweenRat(a, b, m)
}

func segmentsProperlyCrossRat(a1, b1, a2, b2 point) bool {
	o1 := orientRat(a1, b1, a2)
	o2 := orientRat(a1, b1, b2)
	o3 := orientRat(a2, b2, a1)
	o4 := orientRat(a2, b2, b1)
	return o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 && o1 != o2 && o3 != o4
}

// segmentsOverlapRat compares the ranges on the dominant axis of the
// first segment's direction, or the second's when the first is a point.
func segmentsOverlapRat(a1, b1, a2, b2 point) bool {
	if orientRat(a1, b1, a2) != 0 || orientRat(a1, b1, b2) != 0 {
		return false
	}
	dx := new(big.Rat).Sub(b1.x, a1.x)
	dy := new(big.Rat).Sub(b1.y, a1.y)
	if dx.Sign() == 0 && dy.Sign() == 0 {
		dx = new(big.Rat).Sub(b2.x, a2.x)
		dy = new(big.Rat).Sub(b2.y, a2.y)
	}
	useX := absCmp(dx, dy) >= 0
	coord := func(p point) *big.Rat {
		if useX {
			return p.x
		}
		return p.y
	}
	lo1, hi1 := coord(a1), coord(b1)
	if lo1.Cmp(hi1) > 0 {
		lo1, hi1 = hi1, lo1
	}
	lo2, hi2 := coord(a2), coord(b2)
	if lo2.Cmp(hi2) > 0 {
		lo2, hi2 = hi2, lo2
	}
	maxLo, minHi := lo1, hi1
	if lo2.Cmp(maxLo) > 0 {
		maxLo = lo2
	}
	if hi2.Cmp(minHi) < 0 {
		minHi = hi2
	}
	return maxLo.Cmp(minHi) < 0
}
