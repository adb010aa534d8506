// Package metrics derives the quantities the experiment tables report
// from engine results: movement cost and aggregations of repeated runs.
package metrics

import (
	"math"

	"luxvis/internal/sim"
	"luxvis/internal/stats"
)

// RunStats aggregates a batch of engine results for one experiment cell
// (one algorithm, one scheduler, one N, many seeds).
type RunStats struct {
	Runs        int
	Reached     int
	Epochs      stats.Summary
	FirstCV     stats.Summary
	Moves       stats.Summary
	DistPerBot  stats.Summary
	MaxColors   int
	Collisions  int
	PathCrosses int
}

// Aggregate folds a batch of results into RunStats. It panics on an
// empty batch — aggregating nothing is a harness bug.
func Aggregate(results []sim.Result) RunStats {
	if len(results) == 0 {
		panic("metrics: Aggregate of empty result batch")
	}
	rs := RunStats{Runs: len(results)}
	epochs := make([]float64, 0, len(results))
	firstCV := make([]float64, 0, len(results))
	moves := make([]float64, 0, len(results))
	dist := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Reached {
			rs.Reached++
		}
		epochs = append(epochs, float64(r.Epochs))
		if r.FirstCVEpoch >= 0 {
			firstCV = append(firstCV, float64(r.FirstCVEpoch))
		}
		moves = append(moves, float64(r.Moves)/math.Max(1, float64(r.N)))
		dist = append(dist, r.TotalDist/math.Max(1, float64(r.N)))
		if r.ColorsUsed > rs.MaxColors {
			rs.MaxColors = r.ColorsUsed
		}
		rs.Collisions += r.Collisions
		rs.PathCrosses += r.PathCrossings
	}
	rs.Epochs = stats.Summarize(epochs)
	if len(firstCV) > 0 {
		rs.FirstCV = stats.Summarize(firstCV)
	}
	rs.Moves = stats.Summarize(moves)
	rs.DistPerBot = stats.Summarize(dist)
	return rs
}
