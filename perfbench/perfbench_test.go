package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"luxvis/internal/config"
	"luxvis/internal/model"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad or reused workload name %q", w.name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the declarations here.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q, the benchmark %q: %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, declared %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, declared %+v", i, m, d)
		}
	}
}

// TestReadme keeps the metric tables in README.md complete, and their
// "should move" column in step with the report's.
func TestReadme(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if cells := strings.Split(line, " | "); len(cells) > 1 && strings.HasPrefix(cells[0], "| `") {
			rows[strings.Trim(cells[0], "| `")] = line
		}
	}
	for _, d := range endToEnd {
		if rows[d.name] == "" {
			t.Errorf("README.md has no row for %s", d.name)
		}
	}
	for _, d := range perLayer {
		if !strings.HasSuffix(rows[d.name], "| "+d.moves+" |") {
			t.Errorf("README.md row for %s does not end in %q", d.name, d.moves)
		}
	}
}

// smallOps is a quick LogVis workload for the tests below.
func smallOps(seed int64) []*simOp {
	return uniformOps("logvis", logVis, true, 48, configs(1, 3), seed)
}

// TestTracedSplit runs a small traced workload and checks the split
// adds up: the shares of disjoint layers sum to at most 1, and the
// engine's self time is what remains, so it is not negative.
func TestTracedSplit(t *testing.T) {
	w := workload{name: "small", setups: 1, setup: func(seed int64) (instance, error) {
		return newSimWorkload(smallOps(seed), logVis)
	}}
	var out strings.Builder
	res, err := measure(w, 1, time.Second, true, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
	sum := 0.0
	for name, v := range res.Metrics {
		if strings.HasSuffix(name, "_share") {
			if v.Value < 0 {
				t.Errorf("%s = %v", name, v.Value)
			}
			sum += v.Value
		}
	}
	if sum > 1 {
		t.Errorf("layer shares sum to %v > 1", sum)
	}
	if self := res.Metrics["sim.self_s"].Value; self < 0 {
		t.Errorf("sim.self_s = %v < 0", self)
	}
	if res.Metrics["core.compute_calls"].Value == 0 || res.Metrics["core.compute_bytes_per_call"].Value == 0 {
		t.Errorf("Compute wrapper or replay saw nothing:\n%s", out.String())
	}
}

func TestUntracedMetricsComplete(t *testing.T) {
	w := workload{name: "small", setups: 2, setup: func(seed int64) (instance, error) {
		return newSimWorkload(smallOps(seed), logVis)
	}}
	var out strings.Builder
	res, err := measure(w, 1, time.Millisecond, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if v := res.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
		}
	}
}

// undeclaredColor lights a color outside LogVis's palette on its first
// Compute, then behaves.
type undeclaredColor struct {
	model.Algorithm
	calls *int
}

func (a undeclaredColor) Compute(s model.Snapshot) model.Action {
	act := a.Algorithm.Compute(s)
	if *a.calls++; *a.calls > 1 {
		return act
	}
	declared := map[model.Color]bool{}
	for _, c := range a.Palette() {
		declared[c] = true
	}
	for _, c := range model.AllColors() {
		if !declared[c] {
			act.Color = c
			return act
		}
	}
	panic("LogVis declares every color")
}

// TestInjectedBadOperationFails checks that a run breaking the model is
// counted as failed.
func TestInjectedBadOperationFails(t *testing.T) {
	ops := smallOps(1)
	ops[1].newAlgo = func() model.Algorithm { return undeclaredColor{logVis(), new(int)} }
	w := workload{name: "bad", setups: 1, setup: func(seed int64) (instance, error) {
		return newSimWorkload(ops, logVis)
	}}
	var out strings.Builder
	res, err := measure(w, 1, time.Millisecond, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Attempted != 3 {
		t.Fatalf("failed %d of %d, want 1 of 3\n%s", res.Failed, res.Attempted, out.String())
	}
	if !strings.Contains(out.String(), "palette violation") {
		t.Errorf("report does not name the palette violation:\n%s", out.String())
	}
}

// TestCacheContradictionIsIncorrect plans a cache hit for a key the
// server has never seen: the response contradicts the plan, which makes
// the whole run incorrect, not merely failed.
func TestCacheContradictionIsIncorrect(t *testing.T) {
	w, err := newServeWorkload(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	req := w.runRequest(config.Uniform, 123456)
	if r := w.doRun(req, opHit); r.fail == "" || !r.mismatch {
		t.Errorf("unplanned miss: fail=%q mismatch=%v, want a mismatch", r.fail, r.mismatch)
	}
	if r := w.doRun(req, opHit); r.fail != "" {
		t.Errorf("repeated key: %s", r.fail)
	}
	if r := w.doStream(w.runRequest(config.Line, 654321)); r.fail != "" || r.firstByte == 0 {
		t.Errorf("stream: fail=%q firstByte=%v", r.fail, r.firstByte)
	}
}

// TestSeedChangesInputs checks that the seed argument reaches every
// workload's inputs, and that the same seed gives the same inputs.
func TestSeedChangesInputs(t *testing.T) {
	runSeeds := func(ops []*simOp) []int64 {
		var out []int64
		for _, op := range ops {
			out = append(out, op.seed)
		}
		return out
	}
	for name, gen := range map[string]func(int64) []*simOp{
		"uniform": smallOps,
		"stress":  stressOps,
	} {
		a, b := gen(1), gen(2)
		if reflect.DeepEqual(runSeeds(a), runSeeds(b)) {
			t.Errorf("%s: seeds 1 and 2 give the same runs", name)
		}
		if !reflect.DeepEqual(runSeeds(a), runSeeds(gen(1))) || !reflect.DeepEqual(a[0].pts, gen(1)[0].pts) {
			t.Errorf("%s: seed 1 is not reproducible", name)
		}
	}
	s1, s2 := &serveWorkload{seed: 1}, &serveWorkload{seed: 2}
	if reflect.DeepEqual(s1.plan(0), s2.plan(0)) {
		t.Error("serve-mixed: seeds 1 and 2 give the same requests")
	}
	if !reflect.DeepEqual(s1.plan(1), (&serveWorkload{seed: 1}).plan(1)) {
		t.Error("serve-mixed: seed 1 is not reproducible")
	}
}

// TestServePlan checks the request mix: four in five are /v1/run, every
// second of those repeats the previous key, and no two misses share one.
func TestServePlan(t *testing.T) {
	w := &serveWorkload{seed: 3}
	count := map[opKind]int{}
	keys := map[string]bool{}
	plan := w.plan(0)
	for i, p := range plan {
		count[p.kind]++
		switch p.kind {
		case opHit:
			if plan[i-1].kind != opMiss || plan[i-1].req != p.req {
				t.Fatalf("request %d: a hit that does not repeat the miss before it", i)
			}
		case opMiss, opStream:
			k, _ := json.Marshal(p.req)
			if keys[string(k)] {
				t.Fatalf("request %d: key reused", i)
			}
			keys[string(k)] = true
		}
	}
	if count[opStream] != perPass/5 || count[opHit] != count[opMiss] || count[opHit]+count[opMiss] != perPass*4/5 {
		t.Errorf("mix %v over %d requests", count, perPass)
	}
	if count[opMiss] < probeKeys {
		t.Errorf("%d misses, the hit probe needs %d", count[opMiss], probeKeys)
	}
	// A later pass asks for new runs.
	if w.plan(0)[0].req == w.plan(1)[0].req {
		t.Error("pass 1 reuses pass 0's runs")
	}
}

func TestReadSSE(t *testing.T) {
	frames := 0
	note, err := readSSE(strings.NewReader("id: 1\ndata: {\"kind\":\"header\"}\n\nid: 2\ndata: {}\n\nevent: end\ndata: {\"kind\":\"end\",\"reached\":true,\"epochs\":7}\n\n"), func() { frames++ })
	if err != nil || !note.Reached || note.Epochs != 7 || frames != 2 {
		t.Errorf("note %+v, err %v, %d frames", note, err, frames)
	}
	if _, err := readSSE(strings.NewReader("id: 1\ndata: {}\n\n"), func() {}); err != errNoEnd {
		t.Errorf("stream without end: err %v", err)
	}
}

func TestParseProm(t *testing.T) {
	m, err := parseProm(strings.NewReader("# HELP a b\n# TYPE a counter\na_total 3\nb{path=\"x y\"} 1.5e3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["a_total"] != 3 || m[`b{path="x y"}`] != 1500 {
		t.Errorf("parsed %v", m)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.9); q < 3.69 || q > 3.71 {
		t.Errorf("p90 %v", q)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
}

// TestCrashRowsPinned checks that stress-matrix's crash rows rerun the
// same schedules in every pass and under every seed, and that the other
// rows do not.
func TestCrashRowsPinned(t *testing.T) {
	a, b := stressOps(1), stressOps(2)
	pinned := 0
	for i, op := range a {
		o0, err := op.options(0)
		if err != nil {
			t.Fatal(err)
		}
		o1, _ := op.options(1)
		other, _ := b[i].options(0)
		crash := op.stress.CrashK > 0
		if crash {
			pinned++
		}
		if same := o0.Seed == o1.Seed && o0.Seed == other.Seed; same != crash {
			t.Errorf("%s: seeds %d (pass 1: %d, seed 2: %d), crash row %v", op.label, o0.Seed, o1.Seed, other.Seed, crash)
		}
	}
	if want := 2 * len(config.Families()) * 2; pinned != want {
		t.Errorf("%d pinned runs, want %d", pinned, want)
	}
}

// TestRefClock checks the reference units' pace: one unit per refEvery
// of workload CPU time, the remainder carried over, none for a nil clock.
func TestRefClock(t *testing.T) {
	c := newRefClock()
	c.after(5.5 * refEvery)
	if len(c.units) != 5 {
		t.Fatalf("%d units after 5.5 refEvery, want 5", len(c.units))
	}
	c.after(0.5 * refEvery)
	if len(c.units) != 6 {
		t.Fatalf("%d units after 6 refEvery, want 6", len(c.units))
	}
	if c.spent() <= 0 || c.scale() <= 0 {
		t.Errorf("spent %v, scale %v", c.spent(), c.scale())
	}
	var none *refClock
	none.after(1)
	if none.spent() != 0 {
		t.Error("a nil clock spent time")
	}
}

// TestCappedCrashRun checks that a crash run whose survivors never reach
// Complete Visibility is measured, not failed: it stops at the cap and
// lowers reached_frac.
func TestCappedCrashRun(t *testing.T) {
	var op *simOp
	for _, o := range stressOps(1) {
		if o.label == "stress crash line config=1" {
			op = o
		}
	}
	if op == nil {
		t.Fatal("no crash row on line configuration 1")
	}
	w := workload{name: "capped", setups: 1, setup: func(seed int64) (instance, error) {
		return newSimWorkload([]*simOp{op}, logVis)
	}}
	var out strings.Builder
	res, err := measure(w, 1, time.Millisecond, false, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out.String())
	}
	if got := res.Metrics["reached_frac"].Value; got != 0 {
		t.Errorf("reached_frac = %v, want 0 (the run stops at the %d-epoch cap)", got, stressMaxEpochs)
	}
}
