package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// metricDef declares one reported metric. moves names, for a per-layer
// metric, the end-to-end metric it should move and on which workload.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run of every workload. Each is defined on every workload and
// never zero. Times are process CPU time (see cpuSeconds): on a shared
// host the wall time of the same work moves with the neighbours.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "run_cpu_ms", unit: "ms", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "epochs_mean", unit: "epochs", better: "lower"},
	{name: "reached_frac", unit: "1", better: "higher"},
}

// perLayer are the metrics of single layers, printed by a traced run.
// A metric a workload does not reach reads 0.
var perLayer = []metricDef{
	{"core.compute_s", "s", "lower", "cpu_s on logvis-large and stress-matrix; flat on circlevis-large"},
	{"core.compute_calls", "count", "lower", "cpu_s on logvis-large and stress-matrix"},
	{"core.compute_share", "1", "lower", "cpu_s on logvis-large"},
	{"core.compute_bytes_per_call", "B", "lower", "alloc_mb on logvis-large and stress-matrix"},
	{"core.compute_allocs_per_call", "count", "lower", "alloc_mb on logvis-large and stress-matrix"},
	{"circlevis.compute_s", "s", "lower", "cpu_s on circlevis-large"},
	{"circlevis.compute_share", "1", "lower", "cpu_s on circlevis-large"},
	{"geom.look_s", "s", "lower", "cpu_s on circlevis-large, then logvis-large"},
	{"geom.look_share", "1", "lower", "cpu_s on circlevis-large, then logvis-large"},
	{"geom.rows_computed", "count", "lower", "cpu_s on circlevis-large, then logvis-large"},
	{"geom.rows_reused", "count", "higher", "cpu_s on circlevis-large, then logvis-large"},
	{"geom.row_reuse_ratio", "1", "higher", "cpu_s on circlevis-large, then logvis-large"},
	{"geom.cv_s", "s", "lower", "cpu_s on circlevis-large, then logvis-large"},
	{"geom.cv_checks", "count", "lower", "cpu_s on circlevis-large, then logvis-large"},
	{"geom.cv_share", "1", "lower", "cpu_s on circlevis-large, then logvis-large"},
	{"exact.confirm_s", "s", "lower", "cpu_s on circlevis-large and logvis-large"},
	{"exact.confirm_share", "1", "lower", "cpu_s on circlevis-large and logvis-large"},
	{"sched.next_s", "s", "lower", "cpu_s on stress-matrix"},
	{"sched.next_calls", "count", "lower", "cpu_s on stress-matrix"},
	{"sim.events", "count", "lower", "cpu_s and epochs_mean on every workload"},
	{"sim.cycles", "count", "lower", "cpu_s and epochs_mean on every workload"},
	{"sim.moves", "count", "lower", "cpu_s on stress-matrix and logvis-large"},
	{"sim.events_per_s", "1/s", "higher", "cpu_s on stress-matrix and logvis-large"},
	{"sim.checks_s", "s", "lower", "cpu_s on stress-matrix and logvis-large"},
	{"sim.self_s", "s", "lower", "cpu_s on stress-matrix and logvis-large"},
	{"verify.audit_s", "s", "lower", "cpu_s on stress-matrix"},
	{"verify.audit_share", "1", "lower", "cpu_s on stress-matrix"},
	{"verify.parity_mismatches", "count", "lower", "failed on stress-matrix"},
	{"scenario.capped_runs", "count", "lower", "reached_frac and cpu_s on stress-matrix"},
	{"serve.handler_mean_ms", "ms", "lower", "cpu_s on serve-mixed, by way of serve.hit_p50_ms"},
	{"serve.http_overhead_ms", "ms", "lower", "cpu_s on serve-mixed, by way of serve.hit_p50_ms"},
	{"serve.cache_hit_ratio", "1", "higher", "cpu_s and run_cpu_ms on serve-mixed"},
	{"serve.rejected", "count", "lower", "failed on serve-mixed"},
	{"serve.first_frame_p50_ms", "ms", "lower", "cpu_s on serve-mixed, by way of serve.stream_p50_ms"},
	{"serve.hit_p50_ms", "ms", "lower", "cpu_s on serve-mixed"},
	{"serve.miss_p90_ms", "ms", "lower", "run_cpu_ms and cpu_s on serve-mixed"},
	{"serve.stream_p50_ms", "ms", "lower", "cpu_s on serve-mixed"},
	{"stream.frames", "count", "lower", "cpu_s on serve-mixed, by way of serve.stream_p50_ms"},
	{"stream.dropped", "count", "lower", "cpu_s on serve-mixed, by way of serve.stream_p50_ms"},
	{"stream.encode_ns_per_frame", "ns", "lower", "cpu_s on serve-mixed, by way of serve.stream_p50_ms"},
	{"runtime.gc_cpu_frac", "1", "lower", "cpu_s on logvis-large, by way of alloc_mb"},
	{"runtime.gc_cycles", "count", "lower", "cpu_s on logvis-large, by way of alloc_mb"},
	{"runtime.heap_peak_mb", "MB", "lower", "alloc_mb on logvis-large"},
	{"runtime.allocs_k", "k", "lower", "alloc_mb and cpu_s on every workload"},
	{"bench.trace_overhead_frac", "1", "lower", "none: the price of tracing"},
	{"bench.failed_frac", "1", "lower", "failed on the same workload"},
}

// metrics holds measured values by name.
type metrics map[string]float64

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// splitLatencies groups operation latencies in ms by kind.
func splitLatencies(ops []opResult) map[opKind][]float64 {
	out := map[opKind][]float64{}
	for _, r := range ops {
		if r.fail == "" {
			out[r.kind] = append(out[r.kind], ms(r.latency))
		}
	}
	return out
}

// Go runtime metrics read around timed and traced passes.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmAllocObjs  = "/gc/heap/allocs:objects"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rmHeapLive   = "/memory/classes/heap/objects:bytes"
)

// readRuntime returns the named runtime metrics as float64s.
func readRuntime(names ...string) []float64 {
	samples := make([]rtmetrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// cpuSeconds is the process's user plus system CPU time so far, as the
// kernel accounts it: every thread's run time, less what the hypervisor
// took while a thread was runnable (steal).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// threadCPUSeconds is the calling thread's CPU time so far
// (CLOCK_THREAD_CPUTIME_ID, which, unlike a thread's getrusage, is not
// counted in scheduler ticks). Lock the goroutine to its thread around a
// reading.
func threadCPUSeconds() float64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano()).Seconds()
}

// heapSampler tracks the peak live heap while it runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.peak = math.Max(h.peak, readRuntime(rmHeapLive)[0])
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in bytes.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}
