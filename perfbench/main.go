// Command perfbench is luxvis's benchmark. One invocation runs one
// workload and prints, as the last line of standard output, a JSON
// object with the end-to-end metrics (untraced run) or the per-layer
// metrics (-trace 1). Run it from the repository root:
//
//	bash perfbench/run.sh --workload logvis-large --seed 1 --seconds 20 --trace 0
//
// Every layer is measured from outside the program, by timing calls into
// its public functions and reading the counters it exports; see
// README.md in this directory for the workloads, the metrics and which
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// instance is a set-up workload, ready to run passes: each pass does the
// workload's fixed work once, on inputs drawn for that pass index.
type instance interface {
	// pass calls ref.after with each operation's CPU time.
	pass(p int, traced bool, ref *refClock) ([]opResult, error)
	// layerMetrics derives the per-layer metrics from the last traced
	// pass; wall is its wall time and untracedEngine the engine time of
	// an untraced pass.
	layerMetrics(m metrics, wall, untracedEngine time.Duration) error
	close()
}

type workload struct {
	name, why string
	setup     func(seed int64) (instance, error)
	// setups is how many times set-up runs per invocation; setup_s is
	// the median.
	setups int
	// passSeconds is about how long one untraced pass takes on the host
	// of record; see passCount.
	passSeconds float64
}

// passCount is how many untraced passes a run of the given length makes:
// as many as fit at the host of record's speed, at least one. The count
// depends on nothing measured, so a seed always does the same work and
// meets the same failures, however fast the host runs that day — unless
// it runs so slowly that the next pass would end after slowLimit times
// the run's length, when the run stops early.
func (w workload) passCount(budget time.Duration) int {
	if w.passSeconds <= 0 {
		return 1
	}
	return max(1, int(budget.Seconds()/w.passSeconds))
}

// slowLimit bounds how far past its length a run on a slow host goes.
const slowLimit = 1.5

// logvis-large sizing.
const (
	logvisN    = 128
	logvisRuns = 5
)

// circlevisConfigs are circlevis-large's configurations at n=384: on 1
// the exact confirmations (the engine's and the benchmark's) take about
// two thirds of a 4 s run; 2, 5, 6 and 7 run in about 1 s.
var circlevisConfigs = []int64{1, 2, 5, 6, 7}

var workloads = []workload{
	{
		name:        "logvis-large",
		why:         "Compute-bound: core.LogVis.Compute takes about 75% of traced time (2-core host). 10 LogVis runs a pass, n=128, async-random, pinned uniform configurations.",
		setups:      15,
		passSeconds: 3.2,
		setup: func(seed int64) (instance, error) {
			return newSimWorkload(uniformOps("logvis", logVis, true, logvisN, configs(1, logvisRuns), seed), logVis)
		},
	},
	{
		name:        "circlevis-large",
		why:         "Never calls core: Look, the CV check and the big.Rat confirmation dominate, so a core rework must leave it flat. CircleVis, n=384, uniform configurations 1, 2, 5, 6 and 7.",
		setups:      15,
		passSeconds: 6.5,
		setup: func(seed int64) (instance, error) {
			return newSimWorkload(uniformOps("circlevis", circleVis, false, 384, circlevisConfigs, seed), circleVis)
		},
	},
	{
		name:        "stress-matrix",
		why:         "7 stressors x 10 families x 2 configurations, LogVis n=24, traces audited. Baseline: 4 of 140 runs (crash rows, line families) stop unreached at 512 epochs, reached_frac 0.971.",
		setups:      15,
		passSeconds: 2.5,
		setup: func(seed int64) (instance, error) {
			return newSimWorkload(stressOps(seed), logVis)
		},
	},
	{
		name:        "serve-mixed",
		why:         "In-process server, 2 workers, 1 closed-loop client: queue, LRU cache, JSON and SSE paths, with the engine's observers attached. LogVis n=48 runs.",
		setups:      9,
		passSeconds: 4.5,
		setup: func(seed int64) (instance, error) {
			return newServeWorkload(seed)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (>= 1): the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "run length in seconds at the host of record's speed; sets the number of passes")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seed < 1 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seed >= 1, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d numcpu=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// passStats is one timed pass.
type passStats struct {
	ops            []opResult
	wall, engine   time.Duration
	cpu            float64 // process user+system CPU seconds
	allocB, allocN float64
}

// timedPass runs one pass. Its times leave out the reference units run
// during it.
func timedPass(inst instance, p int, traced bool, ref *refClock) (passStats, error) {
	before := readRuntime(rmAllocBytes, rmAllocObjs)
	cpu0, ref0 := cpuSeconds(), ref.spent()
	t0 := time.Now()
	ops, err := inst.pass(p, traced, ref)
	wall := time.Since(t0)
	units := ref.spent() - ref0
	cpu := cpuSeconds() - cpu0 - units
	after := readRuntime(rmAllocBytes, rmAllocObjs)
	ps := passStats{ops: ops, wall: wall - seconds(units), cpu: cpu, allocB: after[0] - before[0], allocN: after[1] - before[1]}
	for _, r := range ops {
		ps.engine += r.engine
	}
	return ps, err
}

// measure sets the workload up, runs it and derives the metrics.
func measure(w workload, seed int64, budget time.Duration, traced bool, out io.Writer) (result, error) {
	var setups, setupWalls []float64
	var inst instance
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // every set-up starts from a collected heap
		cpu0, t0 := cpuSeconds(), time.Now()
		var err error
		if inst, err = w.setup(seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		setups = append(setups, cpuSeconds()-cpu0)
	}
	defer inst.close()
	fmt.Fprintf(out, "setup: %d runs, median cpu %.4f s, wall %.4f s\n", len(setups), median(setups), median(setupWalls))

	// A traced invocation runs pass 0 twice: untraced, for the tracing
	// overhead, and traced.
	var ref *refClock
	if !traced {
		ref = newRefClock()
		for i := 0; i < 10; i++ {
			ref.unit()
		}
	}
	count := w.passCount(budget)
	if traced {
		count = 1
	}
	var passes []passStats
	start := time.Now()
	for len(passes) < count {
		t0 := time.Now()
		ps, err := timedPass(inst, len(passes), false, ref)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, ps)
		reportPass(out, len(passes), ps)
		if last := time.Since(t0); time.Since(start)+last > time.Duration(slowLimit*float64(budget)) {
			if len(passes) < count {
				fmt.Fprintf(out, "host too slow: stopping after %d of %d passes\n", len(passes), count)
			}
			break
		}
	}
	if !traced {
		return summarize(out, passes, endToEndMetrics(out, passes, setups, ref)), nil
	}

	gc0 := readRuntime(rmGCCycles, rmGCCPU, rmTotalCPU)
	heap := startHeapSampler(5 * time.Millisecond)
	tp, err := timedPass(inst, 0, true, nil)
	peak := heap.finish()
	gc1 := readRuntime(rmGCCycles, rmGCCPU, rmTotalCPU)
	if err != nil {
		return result{}, err
	}
	reportPass(out, 2, tp)
	fmt.Fprintln(out, "  (traced)")
	m := metrics{}
	if err := inst.layerMetrics(m, tp.wall, passes[0].engine); err != nil {
		return result{}, err
	}
	m["runtime.gc_cycles"] = gc1[0] - gc0[0]
	m["runtime.gc_cpu_frac"] = ratio(gc1[1]-gc0[1], gc1[2]-gc0[2])
	m["runtime.heap_peak_mb"] = peak / 1e6
	m["runtime.allocs_k"] = passes[0].allocN / 1e3
	m["bench.trace_overhead_frac"] = tp.wall.Seconds()/passes[0].wall.Seconds() - 1
	all := append(passes, tp)
	attempted, failed, _ := tally(all)
	m["bench.failed_frac"] = float64(failed) / float64(attempted)
	printTable(out, "per-layer metrics (traced pass)", perLayer, m)
	return summarize(out, all, toValues(perLayer, m)), nil
}

func reportPass(out io.Writer, i int, ps passStats) {
	failed := 0
	for _, r := range ps.ops {
		if r.fail != "" {
			failed++
		}
	}
	fmt.Fprintf(out, "pass %d: wall %.4f s, cpu %.4f s, alloc %.1f MB in %.0f objects, %d ops, %d failed\n",
		i, ps.wall.Seconds(), ps.cpu, ps.allocB/1e6, ps.allocN, len(ps.ops), failed)
}

// tally counts operations over passes; correct is false when any
// operation's output contradicted another computation or the protocol.
func tally(passes []passStats) (attempted, failed int, correct bool) {
	correct = true
	for _, p := range passes {
		for _, r := range p.ops {
			attempted++
			if r.fail != "" {
				failed++
			}
			correct = correct && !r.mismatch
		}
	}
	return attempted, failed, correct
}

// summarize prints the failures and builds the result line.
func summarize(out io.Writer, passes []passStats, values map[string]metricValue) result {
	attempted, failed, correct := tally(passes)
	const show = 8
	shown := 0
	for _, p := range passes {
		for _, r := range p.ops {
			if r.fail != "" && (r.mismatch || shown < show) {
				shown++
				fmt.Fprintf(out, "failed: %s (mismatch=%v)\n", r.fail, r.mismatch)
			}
		}
	}
	if failed > shown {
		fmt.Fprintf(out, "failed: %d more\n", failed-shown)
	}
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: values}
}

// endToEndMetrics derives the end-to-end metrics from untraced passes
// and prints them, with figures that are reported but not gated. CPU
// times are scaled to the host of record's speed by ref.
func endToEndMetrics(out io.Writer, passes []passStats, setups []float64, ref *refClock) map[string]metricValue {
	var cpus, walls, allocB, allocN, passRunCPU, runCPU []float64
	var epochs, crossings, robots, reached, computed, maxEpochs float64
	var reachedCPU []float64 // CPU ms of the runs that reached CV
	var ops []opResult
	for _, p := range passes {
		cpus = append(cpus, p.cpu)
		walls = append(walls, p.wall.Seconds())
		allocB = append(allocB, p.allocB)
		allocN = append(allocN, p.allocN)
		ops = append(ops, p.ops...)
		var inPass []float64
		for _, r := range p.ops {
			if r.kind.computed() && r.n > 0 {
				inPass = append(inPass, ms(r.cpu))
			}
		}
		passRunCPU = append(passRunCPU, mean(inPass))
	}
	// The paper's measures (epochs to Complete Visibility, crossings)
	// count only the runs that reached it.
	for _, r := range ops {
		if !r.kind.computed() || r.n == 0 {
			continue
		}
		computed++
		runCPU = append(runCPU, ms(r.cpu))
		if r.reached {
			reachedCPU = append(reachedCPU, ms(r.cpu))
			maxEpochs = max(maxEpochs, float64(r.epochs))
			epochs += float64(r.epochs)
			crossings += float64(r.crossings)
			robots += float64(r.n)
			reached++
		}
	}
	attempted, failed, _ := tally(passes)
	k := ref.scale()
	m := metrics{
		"setup_s":      median(setups) * k,
		"cpu_s":        median(cpus) * k,
		"run_cpu_ms":   median(passRunCPU) * k,
		"alloc_mb":     median(allocB) / 1e6,
		"epochs_mean":  ratio(epochs, reached),
		"reached_frac": ratio(reached, computed),
	}
	printTable(out, "end-to-end metrics (untraced)", endToEnd, m)
	fmt.Fprintln(out, "other figures (CPU times as measured, not scaled):")
	fmt.Fprintf(out, "  %-30s %14.6g (%d reference units, median %.3f ms)\n", "scale to the host of record", k, len(ref.units), median(ref.units)*1e3)
	fmt.Fprintf(out, "  %-30s %14.6g %s\n", "setup_s", median(setups), "s")
	fmt.Fprintf(out, "  %-30s %14.6g %s\n", "cpu_s", median(cpus), "s")
	fmt.Fprintf(out, "  %-30s %14.6g %s\n", "run_cpu_ms", median(passRunCPU), "ms")
	fmt.Fprintf(out, "  %-30s %14.6g %s (%d samples)\n", "run_cpu_p50_ms", median(runCPU), "ms", len(runCPU))
	fmt.Fprintf(out, "  %-30s %14.6g %s (%d passes)\n", "pass wall_s", median(walls), "s", len(walls))
	fmt.Fprintf(out, "  %-30s %14.6g %s (%d samples)\n", "run_cpu_p90_ms", quantile(runCPU, 0.9), "ms", len(runCPU))
	fmt.Fprintf(out, "  %-30s %14.6g %s\n", "epochs_max of reached runs", maxEpochs, "epochs")
	fmt.Fprintf(out, "  %-30s %14.6g %s (%d runs)\n", "cpu_s of runs not reached", (sum(runCPU)-sum(reachedCPU))/1e3, "s", len(runCPU)-len(reachedCPU))
	fmt.Fprintf(out, "  %-30s %14.6g %s\n", "allocs_k", median(allocN)/1e3, "k")
	fmt.Fprintf(out, "  %-30s %14.6g %s\n", "failed_frac", float64(failed)/float64(attempted), "1")
	fmt.Fprintf(out, "  %-30s %14.6g %s\n", "crossings_per_robot", crossings/robots, "1")
	lat := splitLatencies(ops)
	if len(lat[opHit]) > 0 {
		fmt.Fprintf(out, "  %-30s %14.6g ms (%d samples)\n", "hit_p50_ms", quantile(lat[opHit], 0.5), len(lat[opHit]))
		fmt.Fprintf(out, "  %-30s %14.6g ms (%d samples)\n", "miss_p50_ms", quantile(lat[opMiss], 0.5), len(lat[opMiss]))
		fmt.Fprintf(out, "  %-30s %14.6g ms (%d samples)\n", "miss_p90_ms", quantile(lat[opMiss], 0.9), len(lat[opMiss]))
		fmt.Fprintf(out, "  %-30s %14.6g ms (%d samples)\n", "stream_p50_ms", quantile(lat[opStream], 0.5), len(lat[opStream]))
	}
	return toValues(endToEnd, m)
}

func toValues(defs []metricDef, m metrics) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return out
}

func printTable(out io.Writer, title string, defs []metricDef, m metrics) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-30s %14.6g %-7s %s\n", d.name, m[d.name], d.unit, d.moves)
	}
}
