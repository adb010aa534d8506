// Package stats provides the small statistical toolkit the experiment
// harness uses to decide which growth law a measured series follows:
// least-squares fits of y against log₂(x) and against x, coefficients of
// determination, and summary statistics with bootstrap confidence
// intervals. The headline reproduction question — do epochs grow like
// log N or like N? — is answered by comparing the two fits' R².
package stats

import (
	"errors"
	"math"
	"sort"
)

// Fit is a least-squares line y ≈ Slope·f(x) + Intercept for a feature
// transform f, with goodness-of-fit diagnostics.
type Fit struct {
	// Slope and Intercept are the fitted coefficients.
	Slope, Intercept float64
	// R2 is the coefficient of determination in [..1]; 1 is a perfect
	// fit (it can be negative for fits worse than the mean).
	R2 float64
	// RMSE is the root mean squared residual.
	RMSE float64
	// N is the number of points fitted.
	N int
}

// LinearFit fits y ≈ a·x + b.
func LinearFit(xs, ys []float64) (Fit, error) {
	return fit(xs, ys, func(x float64) float64 { return x })
}

// Log2Fit fits y ≈ a·log₂(x) + b. All xs must be positive.
func Log2Fit(xs, ys []float64) (Fit, error) {
	for _, x := range xs {
		if x <= 0 {
			return Fit{}, errors.New("stats: Log2Fit requires positive x")
		}
	}
	return fit(xs, ys, math.Log2)
}

// SqrtFit fits y ≈ a·√x + b; used as an extra alternative law in the
// scaling analysis. All xs must be non-negative.
func SqrtFit(xs, ys []float64) (Fit, error) {
	for _, x := range xs {
		if x < 0 {
			return Fit{}, errors.New("stats: SqrtFit requires non-negative x")
		}
	}
	return fit(xs, ys, math.Sqrt)
}

func fit(xs, ys []float64, f func(float64) float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, errors.New("stats: mismatched series lengths")
	}
	n := len(xs)
	if n < 2 {
		return Fit{}, errors.New("stats: need at least two points")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		fx := f(xs[i])
		sx += fx
		sy += ys[i]
		sxx += fx * fx
		sxy += fx * ys[i]
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	// den = n·Σx² − (Σx)² ≥ 0 (Cauchy–Schwarz) and vanishes exactly when
	// all x are equal; compare against a magnitude-scaled band rather
	// than zero so near-degenerate inputs fail loudly instead of
	// producing an astronomically amplified slope.
	if den <= 1e-12*fn*sxx {
		return Fit{}, errors.New("stats: degenerate x values")
	}
	slope := (fn*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / fn

	meanY := sy / fn
	var ssRes, ssTot float64
	for i := range xs {
		pred := slope*f(xs[i]) + intercept
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes > 0 {
		r2 = 0
	}
	return Fit{
		Slope:     slope,
		Intercept: intercept,
		R2:        r2,
		RMSE:      math.Sqrt(ssRes / fn),
		N:         n,
	}, nil
}

// GrowthLaw names the growth law best matching a series.
type GrowthLaw string

// Growth laws distinguished by ClassifyGrowth.
const (
	GrowthLog    GrowthLaw = "log"
	GrowthSqrt   GrowthLaw = "sqrt"
	GrowthLinear GrowthLaw = "linear"
)

// GrowthReport compares candidate growth laws on one series.
type GrowthReport struct {
	Log, Sqrt, Linear Fit
	// Best is the law with the highest R².
	Best GrowthLaw
}

// ClassifyGrowth fits y against log₂x, √x and x and reports which law
// explains the series best. The xs must be positive.
func ClassifyGrowth(xs, ys []float64) (GrowthReport, error) {
	lg, err := Log2Fit(xs, ys)
	if err != nil {
		return GrowthReport{}, err
	}
	sq, err := SqrtFit(xs, ys)
	if err != nil {
		return GrowthReport{}, err
	}
	ln, err := LinearFit(xs, ys)
	if err != nil {
		return GrowthReport{}, err
	}
	rep := GrowthReport{Log: lg, Sqrt: sq, Linear: ln, Best: GrowthLog}
	best := lg.R2
	if sq.R2 > best {
		rep.Best, best = GrowthSqrt, sq.R2
	}
	if ln.R2 > best {
		rep.Best = GrowthLinear
	}
	return rep, nil
}

// Summary holds order statistics of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Median, Max   float64
	P25, P75, P90, P95 float64
}

// Summarize computes order statistics of xs. It panics on an empty
// sample — summarizing nothing is a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum, sum2 float64
	for _, x := range s {
		sum += x
		sum2 += x * x
	}
	n := float64(len(s))
	mean := sum / n
	variance := sum2/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    s[0],
		Median: Quantile(s, 0.5),
		Max:    s[len(s)-1],
		P25:    Quantile(s, 0.25),
		P75:    Quantile(s, 0.75),
		P90:    Quantile(s, 0.90),
		P95:    Quantile(s, 0.95),
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of an ASCENDING-sorted
// sample using linear interpolation. It panics on an empty sample.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
