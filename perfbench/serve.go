package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"luxvis/internal/config"
	"luxvis/internal/serve"
)

// serve-mixed sizing: one closed-loop client sending perClient requests
// per pass. Four in five are POST /v1/run (every second one repeating the
// previous key), the fifth starts a streamed run. One request is in
// flight at a time, so the process CPU time spent while it is in flight
// is that request's cost.
const (
	serveWorkers = 2
	perPass      = 250
	serveN       = 48
	// hitProbe fills the server's 4096-sample latency window with cache
	// hits only, so /metrics reports the handler's hit latency.
	hitProbe = 4096
	// probeKeys is how many of the traced pass's last misses the probe
	// repeats. With the streamed runs they are well within the last 512
	// runs cached, the default LRU capacity.
	probeKeys = 50
)

// serveWorkload drives an in-process server over a loopback listener.
type serveWorkload struct {
	seed   int64
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	passes int // passes run so far; see runRequest

	// Traced pass state: scrapes taken before it and the keys it cached.
	before    scrape
	hitKeys   []serve.RunRequest
	tracedOps []opResult
}

func newServeWorkload(seed int64) (*serveWorkload, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	w := &serveWorkload{
		seed:   seed,
		srv:    serve.New(serve.Options{Workers: serveWorkers}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() { w.served <- w.hs.Serve(ln) }()
	// Warm-up: one computed run, one cache hit and one stream, on keys no
	// pass uses (pass keys start at 1_000_000) and the same under every
	// seed, so that set-up costs the same.
	req := w.runRequest(config.Uniform, 900_000)
	for _, want := range []opKind{opMiss, opHit} {
		if r := w.doRun(req, want); r.fail != "" {
			w.close()
			return nil, fmt.Errorf("warm-up: %s", r.fail)
		}
	}
	if r := w.doStream(w.runRequest(config.Uniform, 950_000)); r.fail != "" {
		w.close()
		return nil, fmt.Errorf("warm-up: %s", r.fail)
	}
	return w, nil
}

func (w *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // best effort: the process is about to exit
	<-w.served
	_ = w.srv.Close(ctx) // best effort, as above
	w.client.CloseIdleConnections()
}

// runRequest is LogVis at n=48. maxEpochs sits far above a converging
// run's length (about 15 epochs), so it never changes one; a run that
// does not converge — one in a few thousand does not — fails at 512
// epochs instead of running on to the server's default 4096. It is also
// part of the cache key: offsetting it by the number of passes run so far
// makes a repeated pass (the traced one) new to the cache while it
// repeats exactly the same runs.
func (w *serveWorkload) runRequest(fam config.Family, seed int64) serve.RunRequest {
	return serve.RunRequest{
		Algorithm: "logvis", Scheduler: "async-random", Family: string(fam),
		N: serveN, Seed: seed, MaxEpochs: 512 + w.passes,
	}
}

// plan is the request sequence of pass p; every pass asks for runs no
// other pass or seed does.
func (w *serveWorkload) plan(p int) []planned {
	fams := config.Families()
	base := w.seed*1_000_000 + int64(p)*10_000
	var out []planned
	var prev serve.RunRequest
	misses, streams := 0, 0
	for i := 0; i < perPass; i++ {
		switch {
		case i%5 == 4:
			fam := fams[streams%len(fams)]
			out = append(out, planned{kind: opStream, req: w.runRequest(fam, base+500+int64(streams))})
			streams++
		case (i-i/5)%2 == 1:
			out = append(out, planned{kind: opHit, req: prev})
		default:
			prev = w.runRequest(fams[misses%len(fams)], base+int64(misses))
			out = append(out, planned{kind: opMiss, req: prev})
			misses++
		}
	}
	return out
}

type planned struct {
	kind opKind
	req  serve.RunRequest
}

func (w *serveWorkload) pass(p int, traced bool, ref *refClock) ([]opResult, error) {
	defer func() { w.passes++ }()
	plan := w.plan(p)
	if traced {
		var err error
		if w.before, err = w.scrape(); err != nil {
			return nil, err
		}
	}
	var out []opResult
	for _, pl := range plan {
		var r opResult
		if pl.kind == opStream {
			r = w.doStream(pl.req)
		} else {
			r = w.doRun(pl.req, pl.kind)
		}
		ref.after(r.cpu.Seconds())
		out = append(out, r)
	}
	if traced {
		w.tracedOps = out
		// The probe asks again for the last probeKeys misses: the pass
		// caches more runs than the LRU holds, and these are still in it.
		w.hitKeys = w.hitKeys[:0]
		for _, pl := range plan {
			if pl.kind == opMiss {
				w.hitKeys = append(w.hitKeys, pl.req)
			}
		}
		w.hitKeys = w.hitKeys[len(w.hitKeys)-probeKeys:]
	}
	return out, nil
}

// doRun sends one POST /v1/run and checks the answer against the plan.
func (w *serveWorkload) doRun(req serve.RunRequest, want opKind) opResult {
	out := opResult{kind: want}
	body, err := json.Marshal(req)
	if err != nil {
		out.failf(true, "encode request: %v", err)
		return out
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	resp, err := w.client.Post(w.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		out.failf(false, "POST /v1/run: %v", err)
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.latency, out.cpu = time.Since(t0), seconds(cpuSeconds()-cpu0)
	if err != nil {
		out.failf(false, "read /v1/run: %v", err)
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.failf(false, "POST /v1/run: status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return out
	}
	var sum serve.RunSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		out.failf(true, "decode /v1/run: %v", err)
		return out
	}
	out.n, out.reached, out.epochs, out.crossings, out.events = sum.N, sum.Reached, sum.Epochs, sum.PathCrossings, sum.Events
	if sum.Cached != (want == opHit) {
		out.failf(true, "%s seed=%d: cached=%v against the plan", req.Family, req.Seed, sum.Cached)
	}
	if !sum.Reached {
		out.failf(false, "%s seed=%d: reached=false", req.Family, req.Seed)
	}
	if sum.Collisions > 0 {
		out.failf(false, "%s seed=%d: %d collisions", req.Family, req.Seed, sum.Collisions)
	}
	return out
}

// doStream starts a run with POST /v1/runs and drains its SSE stream
// unpaced to the terminal end event.
func (w *serveWorkload) doStream(req serve.RunRequest) opResult {
	out := opResult{kind: opStream}
	body, err := json.Marshal(req)
	if err != nil {
		out.failf(true, "encode request: %v", err)
		return out
	}
	cpu0, t0 := cpuSeconds(), time.Now()
	resp, err := w.client.Post(w.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.failf(false, "POST /v1/runs: %v", err)
		return out
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		out.failf(false, "POST /v1/runs: status %d: %v %s", resp.StatusCode, err, strings.TrimSpace(string(data)))
		return out
	}
	var st serve.StreamRunStatus
	if err := json.Unmarshal(data, &st); err != nil || st.StreamPath == "" {
		out.failf(true, "decode /v1/runs: %v", err)
		return out
	}
	sreq, err := http.NewRequest(http.MethodGet, w.base+st.StreamPath+"?speed=0", nil)
	if err != nil {
		out.failf(true, "stream request: %v", err)
		return out
	}
	sreq.Header.Set("Accept", "text/event-stream")
	sresp, err := w.client.Do(sreq)
	if err != nil {
		out.failf(false, "GET %s: %v", st.StreamPath, err)
		return out
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		out.failf(false, "GET %s: status %d", st.StreamPath, sresp.StatusCode)
		return out
	}
	end, err := readSSE(sresp.Body, func() {
		if out.firstByte == 0 {
			out.firstByte = time.Since(t0)
		}
	})
	out.latency, out.cpu = time.Since(t0), seconds(cpuSeconds()-cpu0)
	switch {
	case err != nil:
		out.failf(true, "%s: %v", st.StreamPath, err)
	case !end.Reached:
		out.failf(false, "%s: reached=false", st.StreamPath)
	}
	return out
}

// endNote is the data of the terminal SSE event.
type endNote struct {
	Kind    string `json:"kind"`
	Reached bool   `json:"reached"`
	Epochs  int    `json:"epochs"`
}

var errNoEnd = errors.New("stream closed without an end event")

// readSSE consumes an event stream, calling frame for every data line
// before the terminal event, and returns the terminal event's note.
func readSSE(r io.Reader, frame func()) (endNote, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	inEnd := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			inEnd = true
		case strings.HasPrefix(line, "data: ") && inEnd:
			var note endNote
			if err := json.Unmarshal([]byte(line[len("data: "):]), &note); err != nil {
				return note, fmt.Errorf("decode end event: %w", err)
			}
			return note, nil
		case strings.HasPrefix(line, "data: "):
			frame()
		}
	}
	if err := sc.Err(); err != nil {
		return endNote{}, err
	}
	return endNote{}, errNoEnd
}

// scrape is one reading of the server's own metrics: the JSON snapshot
// and the Prometheus exposition.
type scrape struct {
	snap serve.MetricsSnapshot
	prom map[string]float64 // series (name plus labels) to value
}

func (w *serveWorkload) scrape() (scrape, error) {
	var s scrape
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return s, fmt.Errorf("GET /metrics: %w", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&s.snap)
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("decode /metrics: %w", err)
	}
	req, err := http.NewRequest(http.MethodGet, w.base+"/metrics", nil)
	if err != nil {
		return s, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err = w.client.Do(req)
	if err != nil {
		return s, fmt.Errorf("GET /metrics (text): %w", err)
	}
	defer resp.Body.Close()
	s.prom, err = parseProm(resp.Body)
	return s, err
}

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func (w *serveWorkload) layerMetrics(m metrics, wall, _ time.Duration) error {
	after, err := w.scrape()
	if err != nil {
		return err
	}
	b := w.before
	prom := func(series string) float64 { return after.prom[series] - b.prom[series] }

	events := prom("luxvis_engine_events_total")
	m["sim.events"] = events
	m["sim.cycles"] = prom("luxvis_engine_cycles_total")
	m["sim.moves"] = prom("luxvis_engine_moves_total")
	look := prom("luxvis_engine_vis_look_seconds_total")
	cv := prom("luxvis_engine_vis_cv_seconds_total")
	computed := prom(`luxvis_engine_vis_rows_total{path="computed"}`)
	reused := prom(`luxvis_engine_vis_rows_total{path="reused"}`)
	m["geom.look_s"] = look
	m["geom.look_share"] = look / wall.Seconds()
	m["geom.rows_computed"] = computed
	m["geom.rows_reused"] = reused
	m["geom.row_reuse_ratio"] = ratio(reused, computed+reused)
	m["geom.cv_s"] = cv
	m["geom.cv_checks"] = prom("luxvis_engine_vis_cv_checks_total")
	m["geom.cv_share"] = cv / wall.Seconds()

	hits := after.snap.Cache.Hits - b.snap.Cache.Hits
	misses := after.snap.Cache.Misses - b.snap.Cache.Misses
	m["serve.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["serve.rejected"] = float64(after.snap.Jobs.Rejected - b.snap.Jobs.Rejected)
	frames := prom("luxvis_stream_frames_total")
	m["stream.frames"] = frames
	m["stream.dropped"] = prom("luxvis_stream_dropped_total")
	m["stream.encode_ns_per_frame"] = ratio(prom("luxvis_stream_encode_ns"), frames)

	lat := splitLatencies(w.tracedOps)
	m["serve.hit_p50_ms"] = quantile(lat[opHit], 0.5)
	m["serve.miss_p90_ms"] = quantile(lat[opMiss], 0.9)
	m["serve.stream_p50_ms"] = quantile(lat[opStream], 0.5)
	var first []float64
	for _, r := range w.tracedOps {
		if r.kind == opStream {
			first = append(first, ms(r.firstByte))
		}
	}
	m["serve.first_frame_p50_ms"] = quantile(first, 0.5)

	// Hit probe: after hitProbe hits, the /metrics latency window holds
	// hits only, so it describes the handler's hit latency, and the
	// client's latency over the same requests less that is the HTTP round
	// trip. The server keeps whole microseconds, so its p50 of a 20 µs
	// handler reads the same from run to run; the mean keeps the digits.
	probe, err := w.probeHits()
	if err != nil {
		return err
	}
	final, err := w.scrape()
	if err != nil {
		return err
	}
	handler := final.snap.LatencyMs["/v1/run"].MeanMs
	m["serve.handler_mean_ms"] = handler
	m["serve.http_overhead_ms"] = mean(probe) - handler
	return nil
}

// probeHits sends hitProbe cache-hit requests over the traced pass's
// keys, one at a time, and returns their client latencies in ms.
func (w *serveWorkload) probeHits() ([]float64, error) {
	if len(w.hitKeys) == 0 {
		return nil, errors.New("hit probe: the traced pass cached no keys")
	}
	var out []float64
	for i := 0; i < hitProbe; i++ {
		r := w.doRun(w.hitKeys[i%len(w.hitKeys)], opHit)
		if r.fail != "" {
			return nil, fmt.Errorf("hit probe: %s", r.fail)
		}
		out = append(out, ms(r.latency))
	}
	return out, nil
}
