package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 5, 7, 9, 11} // y = 2x + 1
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-9 || math.Abs(fit.Intercept-1) > 1e-9 {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R2 < 0.999999 {
		t.Errorf("R2 = %v", fit.R2)
	}
	if fit.RMSE > 1e-9 {
		t.Errorf("RMSE = %v", fit.RMSE)
	}
}

func TestLog2FitExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32, 64}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*math.Log2(x) + 5
	}
	fit, err := Log2Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-9 || math.Abs(fit.Intercept-5) > 1e-9 {
		t.Errorf("fit = %+v", fit)
	}
	if _, err := Log2Fit([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("non-positive x accepted")
	}
}

func TestSqrtFit(t *testing.T) {
	xs := []float64{1, 4, 9, 16, 25}
	ys := []float64{2, 4, 6, 8, 10} // y = 2·√x
	fit, err := SqrtFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 1e-9 || math.Abs(fit.Intercept) > 1e-9 {
		t.Errorf("fit = %+v", fit)
	}
	if _, err := SqrtFit([]float64{-1, 1}, []float64{1, 2}); err == nil {
		t.Error("negative x accepted")
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := LinearFit([]float64{3, 3, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestClassifyGrowth(t *testing.T) {
	xs := []float64{8, 16, 32, 64, 128, 256, 512}
	rng := rand.New(rand.NewSource(1))
	mk := func(f func(x float64) float64, noise float64) []float64 {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = f(x) + rng.NormFloat64()*noise
		}
		return ys
	}
	logY := mk(func(x float64) float64 { return 4*math.Log2(x) + 2 }, 0.3)
	linY := mk(func(x float64) float64 { return 0.5*x + 3 }, 0.3)
	sqY := mk(func(x float64) float64 { return 3 * math.Sqrt(x) }, 0.3)

	if rep, _ := ClassifyGrowth(xs, logY); rep.Best != GrowthLog {
		t.Errorf("log series classified as %v", rep.Best)
	}
	if rep, _ := ClassifyGrowth(xs, linY); rep.Best != GrowthLinear {
		t.Errorf("linear series classified as %v", rep.Best)
	}
	if rep, _ := ClassifyGrowth(xs, sqY); rep.Best != GrowthSqrt {
		t.Errorf("sqrt series classified as %v", rep.Best)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-9 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("std = %v", s.Std)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty Summarize did not panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for q, want := range cases {
		if got := Quantile(s, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := Quantile([]float64{7}, 0.5); got != 7 {
		t.Errorf("singleton quantile = %v", got)
	}
}
