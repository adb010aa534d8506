// Package trace serializes engine runs for inspection and replay:
// JSON-lines event logs, CSV summaries for spreadsheet analysis, and a
// compact run header. The formats are stable line-oriented encodings so
// traces can be streamed, diffed and post-processed with standard tools.
package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"luxvis/internal/sim"
)

// Header describes a recorded run; it is the first line of a JSONL
// trace stream.
type Header struct {
	Kind      string `json:"kind"` // always "header"
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	Epochs    int    `json:"epochs"`
	Events    int    `json:"events"`
	Reached   bool   `json:"reached"`
	// Crashed lists the robots halted by crash faults, ascending; absent
	// for clean runs. The stream's "crash" events are the authoritative
	// record — this field is summary provenance for tools that read only
	// the header.
	Crashed []int `json:"crashed,omitempty"`
	// Note carries free-form provenance for partial streams — the
	// flight recorder stamps its dump reason here. Empty (and absent
	// from the JSON) for full RecordTrace traces.
	Note string `json:"note,omitempty"`
}

// Event is one engine event in a JSONL trace stream.
type Event struct {
	Kind  string  `json:"kind"` // "look" | "compute" | "step" | "crash"
	Event int     `json:"event"`
	Robot int     `json:"robot"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Color string  `json:"color"`
	// Epoch is the number of completed epochs when the event fired.
	// Events in the first epoch carry 0 and omit the field, which keeps
	// pre-epoch-stamp traces and new ones decoding identically.
	Epoch int `json:"epoch,omitempty"`
}

// EpochMark is an optional epoch-boundary record in a JSONL stream. The
// engine's RecordTrace output never contains marks (its event lines are
// the canonical stream); live stream sources that have no per-event
// stream — the concurrent runtime — emit marks so subscribers still see
// progress. Consumers that only understand events skip unknown kinds.
type EpochMark struct {
	Kind  string `json:"kind"` // always "epoch"
	Epoch int    `json:"epoch"`
	// CV reports whether Complete Visibility held at the boundary.
	CV bool `json:"cv"`
}

// HeaderOf builds the trace header for a completed run.
func HeaderOf(res sim.Result) Header {
	return Header{
		Kind:      "header",
		Algorithm: res.Algorithm,
		Scheduler: res.Scheduler,
		N:         res.N,
		Seed:      res.Seed,
		Epochs:    res.Epochs,
		Events:    res.Events,
		Reached:   res.Reached,
		Crashed:   res.Crashed,
	}
}

// ConvertEvents maps engine trace events to their wire encoding.
func ConvertEvents(evs []sim.TraceEvent) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = Event{
			Kind:  e.Kind,
			Event: e.Event,
			Robot: e.Robot,
			X:     e.Pos.X,
			Y:     e.Pos.Y,
			Color: e.Color.String(),
			Epoch: e.Epoch,
		}
	}
	return out
}

// Encode writes a header and events as JSON lines. It is the one
// encoding of the trace stream: RecordTrace dumps (WriteJSONL) and
// flight-recorder dumps (internal/obs) both go through it, which is what
// makes their event lines byte-comparable.
func Encode(w io.Writer, h Header, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("trace: encoding header: %w", err)
	}
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", ev.Event, err)
		}
	}
	return bw.Flush()
}

// WriteJSONL writes a run (header plus recorded events) as JSON lines.
// The result must have been produced with Options.RecordTrace, otherwise
// only the header is emitted.
func WriteJSONL(w io.Writer, res sim.Result) error {
	return Encode(w, HeaderOf(res), ConvertEvents(res.Trace))
}

// ReadJSONL parses a JSONL trace stream back into a header and events.
// It materializes the whole event slice; callers that want bounded
// memory (or the raw line bytes) should use Decoder directly.
func ReadJSONL(r io.Reader) (Header, []Event, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return Header{}, nil, err
	}
	var events []Event
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			return Header{}, nil, err
		}
		events = append(events, e)
	}
	return dec.Header(), events, nil
}

// WriteRunCSV writes one summary row per result, with a header row, for
// spreadsheet-side analysis of experiment sweeps.
func WriteRunCSV(w io.Writer, results []sim.Result) error {
	cw := csv.NewWriter(w)
	header := []string{
		"algorithm", "scheduler", "n", "seed", "reached", "epochs",
		"first_cv_epoch", "events", "cycles", "moves", "total_dist",
		"colors", "collisions", "path_crossings",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			r.Algorithm, r.Scheduler,
			strconv.Itoa(r.N), strconv.FormatInt(r.Seed, 10),
			strconv.FormatBool(r.Reached), strconv.Itoa(r.Epochs),
			strconv.Itoa(r.FirstCVEpoch), strconv.Itoa(r.Events),
			strconv.Itoa(r.Cycles), strconv.Itoa(r.Moves),
			strconv.FormatFloat(r.TotalDist, 'g', -1, 64),
			strconv.Itoa(r.ColorsUsed), strconv.Itoa(r.Collisions),
			strconv.Itoa(r.PathCrossings),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
