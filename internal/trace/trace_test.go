package trace

import (
	"bytes"
	"strings"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/sim"
)

func sampleResult() sim.Result {
	return sim.Result{
		Algorithm: "logvis",
		Scheduler: "async-random",
		N:         3,
		Seed:      42,
		Epochs:    7,
		Events:    100,
		Reached:   true,
		Trace: []sim.TraceEvent{
			{Event: 1, Robot: 0, Kind: "look", Pos: geom.Pt(1, 2)},
			{Event: 2, Robot: 0, Kind: "compute", Pos: geom.Pt(1, 2)},
			{Event: 3, Robot: 0, Kind: "step", Pos: geom.Pt(2, 3)},
		},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleResult()); err != nil {
		t.Fatal(err)
	}
	h, events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Algorithm != "logvis" || h.N != 3 || !h.Reached || h.Epochs != 7 {
		t.Errorf("header = %+v", h)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if events[2].Kind != "step" || events[2].X != 2 || events[2].Y != 3 {
		t.Errorf("event = %+v", events[2])
	}
}

// TestJSONLCrashRoundTrip pins the crash-fault wire format: the header
// carries the crashed set as summary provenance and "crash" events
// survive the round trip, so visreplay -verify can rebuild the engine's
// crashed set from a serialized trace.
func TestJSONLCrashRoundTrip(t *testing.T) {
	res := sampleResult()
	res.Crashed = []int{1, 2}
	res.Trace = append(res.Trace,
		sim.TraceEvent{Event: 4, Robot: 1, Kind: "crash", Pos: geom.Pt(5, 6)},
		sim.TraceEvent{Event: 5, Robot: 2, Kind: "crash", Pos: geom.Pt(7, 8)},
	)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, res); err != nil {
		t.Fatal(err)
	}
	h, events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Crashed) != 2 || h.Crashed[0] != 1 || h.Crashed[1] != 2 {
		t.Errorf("header crashed = %v", h.Crashed)
	}
	if events[3].Kind != "crash" || events[3].Robot != 1 || events[3].X != 5 {
		t.Errorf("crash event = %+v", events[3])
	}
	// Clean runs keep the field out of the wire entirely.
	var clean bytes.Buffer
	if err := WriteJSONL(&clean, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.String(), "crashed") {
		t.Error("clean header serialized a crashed field")
	}
}

func TestReadJSONLRejectsHeaderless(t *testing.T) {
	r := strings.NewReader(`{"kind":"step","event":1}` + "\n")
	if _, _, err := ReadJSONL(r); err == nil {
		t.Error("headerless stream accepted")
	}
}

func TestWriteRunCSV(t *testing.T) {
	var buf bytes.Buffer
	results := []sim.Result{sampleResult(), sampleResult()}
	if err := WriteRunCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "algorithm,scheduler,n,seed") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "logvis,async-random,3,42,true,7") {
		t.Errorf("row = %q", lines[1])
	}
}
