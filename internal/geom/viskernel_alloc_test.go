package geom_test

// The zero-allocation guard for the kernel's steady state: once the
// arenas and row buffers are warm, neither the batched pass (serial or
// parallel), the incremental Update/Row path nor the Complete Visibility
// read may allocate. CI runs
// this as part of the ordinary test job, so an allocation sneaking into
// the hot path fails the build, not just a benchmark report.

import (
	"math/rand"
	"testing"

	"luxvis/internal/geom"
)

func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
		t.Fatalf("%s allocates %.1f times per run in steady state, want 0", what, allocs)
	}
}

func TestKernelZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{64, 256} { // below and above the parallel threshold
		kern := geom.NewKernel(4)
		defer kern.Close()
		snap := kern.NewSnapshot()
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		// Warm the arenas: first passes grow every buffer to its final
		// size.
		for warm := 0; warm < 3; warm++ {
			snap.Reset(pts)
			snap.ComputeAll()
		}
		assertZeroAllocs(t, "Reset+ComputeAll", func() {
			snap.Reset(pts)
			snap.ComputeAll()
		})
		target := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		home := pts[n/2]
		snap.Update(n/2, target)
		snap.ComputeAll()
		assertZeroAllocs(t, "Update+Row", func() {
			snap.Update(n/2, home)
			for r := 0; r < n; r++ {
				_ = snap.Row(r)
			}
			home, target = target, home
		})
		alive := make([]bool, n)
		for i := range alive {
			alive[i] = i%5 != 0
		}
		assertZeroAllocs(t, "Reset+Snapshot.CompleteVisibility", func() {
			snap.Reset(pts)
			_ = snap.CompleteVisibility(nil)
			snap.Reset(pts)
			_ = snap.CompleteVisibility(alive)
		})
	}
}

func TestRowCacheZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(5))
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	var cache geom.RowCache
	for i := range pts {
		_ = cache.VisibleSet(pts, i) // warm
	}
	assertZeroAllocs(t, "RowCache.VisibleSet", func() {
		for i := range pts {
			_ = cache.VisibleSet(pts, i)
		}
	})
}
