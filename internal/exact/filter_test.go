package exact

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"luxvis/internal/geom"
)

// decodeCase builds four points from six float64 bit patterns and a
// mode byte. a, b and c start as the three raw points; mode%6 then
// rebuilds some of them so that exact and near collinearity, where the
// float filter must abstain, turn up far more often than at random:
//
//	0  raw
//	1  c is the midpoint of a and b (exactly collinear when the halves
//	   and sums are exact, a rounding step off the line otherwise)
//	2  b and c are power-of-two multiples of a, exactly collinear with
//	   a on a line through the origin
//	3  a, b and c share one x coordinate
//	4  c coincides with b
//	5  c is a + 0.3(b-a) in float arithmetic, a rounding step off the line
//
// (mode/6)%4 picks the fourth point d, the second segment's far end. ok
// is false when a coordinate is NaN or infinite.
func decodeCase(bits [6]uint64, mode uint8) (a, b, c, d geom.Point, ok bool) {
	var f [6]float64
	for i, u := range bits {
		f[i] = math.Float64frombits(u)
	}
	a, b, c = geom.Pt(f[0], f[1]), geom.Pt(f[2], f[3]), geom.Pt(f[4], f[5])
	mid := func(p, q geom.Point) geom.Point { return geom.Pt(p.X/2+q.X/2, p.Y/2+q.Y/2) }
	switch mode % 6 {
	case 1:
		c = mid(a, b)
	case 2:
		b = a.Mul(math.Ldexp(1, int(bits[2]%9)-4))
		c = a.Mul(-math.Ldexp(1, int(bits[4]%9)-4))
	case 3:
		b.X, c.X = a.X, a.X
	case 4:
		c = b
	case 5:
		c = a.Add(b.Sub(a).Mul(0.3))
	}
	switch (mode / 6) % 4 {
	case 0:
		d = mid(a, c)
	case 1:
		d = mid(b, c)
	case 2:
		d = geom.Pt(a.X+b.X-c.X, a.Y+b.Y-c.Y)
	case 3:
		d = geom.Pt(c.X, a.Y)
	}
	for _, p := range []geom.Point{a, b, c, d} {
		if !p.IsFinite() {
			return a, b, c, d, false
		}
	}
	return a, b, c, d, true
}

// checkAgainstRat fails t when a filtered predicate disagrees with its
// rational referee on the points a, b, c, d, in several argument orders.
func checkAgainstRat(t testing.TB, a, b, c, d geom.Point) {
	t.Helper()
	p := []geom.Point{a, b, c, d}
	r := fromFloats(p)
	for _, o := range [][3]int{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}, {0, 2, 1}, {0, 1, 3}, {2, 3, 0}} {
		i, j, k := o[0], o[1], o[2]
		if got, want := OrientSign(p[i], p[j], p[k]), orientRat(r[i], r[j], r[k]); got != want {
			t.Fatalf("OrientSign(%v, %v, %v) = %d, big.Rat says %d", p[i], p[j], p[k], got, want)
		}
		if got, want := StrictlyBetween(p[i], p[j], p[k]), strictlyBetweenRat(r[i], r[j], r[k]); got != want {
			t.Fatalf("StrictlyBetween(%v, %v, %v) = %v, big.Rat says %v", p[i], p[j], p[k], got, want)
		}
		if got, want := OnSegment(p[i], p[j], p[k]), onSegmentRat(r[i], r[j], r[k]); got != want {
			t.Fatalf("OnSegment(%v, %v, %v) = %v, big.Rat says %v", p[i], p[j], p[k], got, want)
		}
	}
	for _, o := range [][4]int{{0, 1, 2, 3}, {0, 2, 1, 3}, {2, 3, 0, 1}, {0, 3, 1, 2}} {
		i, j, k, l := o[0], o[1], o[2], o[3]
		if got, want := SegmentsProperlyCross(p[i], p[j], p[k], p[l]),
			segmentsProperlyCrossRat(r[i], r[j], r[k], r[l]); got != want {
			t.Fatalf("SegmentsProperlyCross(%v, %v, %v, %v) = %v, big.Rat says %v",
				p[i], p[j], p[k], p[l], got, want)
		}
		if got, want := SegmentsOverlap(p[i], p[j], p[k], p[l]),
			segmentsOverlapRat(r[i], r[j], r[k], r[l]); got != want {
			t.Fatalf("SegmentsOverlap(%v, %v, %v, %v) = %v, big.Rat says %v",
				p[i], p[j], p[k], p[l], got, want)
		}
	}
}

// randomBits draws one coordinate's bit pattern at scale: 0 a box of
// side 2000, 1 a small integer grid, 2 every exponent float64 has,
// subnormals included, 3 an arbitrary finite or non-finite pattern.
func randomBits(rng *rand.Rand, scale int) uint64 {
	var v float64
	switch scale {
	case 0:
		v = rng.Float64()*2000 - 1000
	case 1:
		v = float64(rng.Intn(17) - 8)
	case 2:
		v = math.Ldexp(rng.Float64()-0.5, rng.Intn(2100)-1100)
	default:
		return rng.Uint64()
	}
	return math.Float64bits(v)
}

// TestOrientFilterDifferential holds the filtered orientation to big.Rat
// on a million generated triples, and every filtered predicate on one
// case in 256. It also checks that the generator reaches both the
// certified path and the fallback often.
func TestOrientFilterDifferential(t *testing.T) {
	cases := 1_000_000
	if testing.Short() {
		cases = 50_000
	}
	rng := rand.New(rand.NewSource(20261017))
	certified, fellBack := 0, 0
	for n := 0; n < cases; {
		// Most cases draw all six coordinates at one everyday scale; one
		// in eight mixes scales per coordinate, where big.Rat is slow.
		var bits [6]uint64
		scale := rng.Intn(2)
		for i := range bits {
			if n%8 == 0 {
				scale = rng.Intn(4)
			}
			bits[i] = randomBits(rng, scale)
		}
		mode := uint8(rng.Intn(256))
		if rng.Intn(2) == 0 {
			mode -= mode % 6 // raw a, b, c: mostly certified
		}
		a, b, c, d, ok := decodeCase(bits, mode)
		if !ok {
			continue
		}
		n++
		s, ok := orientFilter(a, b, c)
		want := orientRat(fromFloat(a), fromFloat(b), fromFloat(c))
		if ok {
			certified++
			if s != want {
				t.Fatalf("filter certified sign %d for %v, %v, %v; big.Rat says %d", s, a, b, c, want)
			}
		} else {
			fellBack++
		}
		if n%256 == 0 {
			checkAgainstRat(t, a, b, c, d)
		}
	}
	t.Logf("%d cases: %d certified, %d fell back to big.Rat", cases, certified, fellBack)
	if certified < cases/4 || fellBack < cases/20 {
		t.Fatalf("generator lost coverage: %d certified, %d fell back of %d", certified, fellBack, cases)
	}
}

// FuzzOrientFilter holds the filtered predicates to their rational
// referees on arbitrary finite coordinates. The corpus in
// testdata/fuzz/FuzzOrientFilter covers subnormals, 1e±300, ±0 and
// exactly collinear triples.
func FuzzOrientFilter(f *testing.F) {
	zero, negZero := math.Float64bits(0), math.Float64bits(math.Copysign(0, -1))
	tiny := math.Float64bits(math.SmallestNonzeroFloat64)
	f.Add(math.Float64bits(0), math.Float64bits(0), math.Float64bits(1), math.Float64bits(0),
		math.Float64bits(0), math.Float64bits(1), uint8(0)) // unit right angle
	f.Add(math.Float64bits(1e300), math.Float64bits(-1e300), math.Float64bits(-1e300),
		math.Float64bits(1e300), math.Float64bits(3), math.Float64bits(7), uint8(1)) // huge midpoint
	f.Add(tiny, 3*tiny, 5*tiny, tiny, 2*tiny, 9*tiny, uint8(6)) // subnormal raw
	f.Add(negZero, zero, zero, negZero, math.Float64bits(1e-300), math.Float64bits(2e-300), uint8(8))
	f.Add(math.Float64bits(0.1), math.Float64bits(0.7), math.Float64bits(3), zero, math.Float64bits(5), zero, uint8(2))
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy uint64, mode uint8) {
		a, b, c, d, ok := decodeCase([6]uint64{ax, ay, bx, by, cx, cy}, mode)
		if !ok {
			return
		}
		checkAgainstRat(t, a, b, c, d)
	})
}

// TestExactPredicatesZeroAlloc: where the float filter certifies every
// orientation, the predicates never touch big.Rat and allocate nothing.
func TestExactPredicatesZeroAlloc(t *testing.T) {
	a, b, c, d := geom.Pt(0, 0), geom.Pt(10, 1), geom.Pt(3, 7), geom.Pt(7, -5)
	for name, f := range map[string]func(){
		"OrientSign":            func() { OrientSign(a, b, c) },
		"Collinear":             func() { Collinear(a, b, c) },
		"StrictlyBetween":       func() { StrictlyBetween(a, b, c) },
		"OnSegment":             func() { OnSegment(a, b, c) },
		"SegmentsProperlyCross": func() { SegmentsProperlyCross(a, b, c, d) },
		"SegmentsOverlap":       func() { SegmentsOverlap(a, b, c, d) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s on certified input allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// circleVisFixture holds the final positions of a CircleVis run at
// n=384 on uniform configuration 1, seed 1: a configuration in Complete
// Visibility with about 188k candidate triples, the exact check's
// hardest input in the benchmark. TestCircleVisFixture pins and
// regenerates it.
const circleVisFixture = "circlevis_uniform_n384_seed1.txt"

// readPoints reads one point per line, "x y" with round-tripping float
// literals, skipping lines that start with '#'.
func readPoints(path string) ([]geom.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var pts []geom.Point
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		xs, ys, _ := strings.Cut(line, " ")
		x, err := strconv.ParseFloat(xs, 64)
		if err != nil {
			return nil, err
		}
		y, err := strconv.ParseFloat(ys, 64)
		if err != nil {
			return nil, err
		}
		pts = append(pts, geom.Pt(x, y))
	}
	return pts, sc.Err()
}

// BenchmarkCompleteVisibilityAmong decides CV on circleVisFixture and
// reports the share of the candidates' orientations that the float
// filter left to big.Rat.
func BenchmarkCompleteVisibilityAmong(b *testing.B) {
	pts, err := readPoints(filepath.Join("testdata", circleVisFixture))
	if err != nil {
		b.Fatal(err)
	}
	candidates, fellBack := 0, 0
	for _, t := range geom.CollinearCandidates(pts, candidateTol) {
		if t.A == t.Blocker || t.B == t.Blocker {
			continue
		}
		candidates++
		if _, ok := orientFilter(pts[t.A], pts[t.B], pts[t.Blocker]); !ok {
			fellBack++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !CompleteVisibilityAmong(pts, nil) {
			b.Fatal("fixture is not in Complete Visibility")
		}
	}
	b.ReportMetric(float64(candidates), "candidates")
	b.ReportMetric(float64(fellBack)/float64(candidates), "fallback-frac")
}
