package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
	"luxvis/internal/trace"
)

// decisionDigest is the SHA-256 of every LogVis run in
// TestDecisionDigest: epochs, the reached bit, the exact bits of every
// final position and color, and the full JSONL event trace. It pins
// LogVis's decisions across all configuration families, well beyond the
// single run of TestGoldenTrace. A deliberate behaviour change re-blesses
// it with the digest the failing test prints.
const decisionDigest = "c85ef74919cba4c921e3cbd8c584e7dfdc7935b6e798639f36f018247770e2aa"

// digestRuns are the run variants hashed per family and size: two plain
// seeds, and one with sensor jitter and non-rigid motion, whose perturbed
// snapshots exercise the near-degenerate hull classifications.
var digestRuns = []struct {
	name     string
	seed     int64
	jitter   float64
	nonRigid bool
}{
	{name: "plain-a", seed: 1000},
	{name: "plain-b", seed: 2000},
	{name: "jitter-nonrigid", seed: 3000, jitter: 1e-3, nonRigid: true},
}

// TestDecisionDigest hashes LogVis runs over every configuration family
// at n = 24 and 48 under the async-random scheduler (see digestRuns). Any change to a
// single Compute decision anywhere in these runs changes the digest.
func TestDecisionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 60 full LogVis simulations")
	}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, fam := range config.Families() {
		for _, n := range []int{24, 48} {
			for _, rc := range digestRuns {
				seed := int64(n) + rc.seed
				opt := sim.DefaultOptions(sched.NewAsyncRandom(), seed)
				opt.RecordTrace = true
				opt.SensorJitter = rc.jitter
				opt.NonRigid = rc.nonRigid
				res, err := sim.Run(core.NewLogVis(), config.Generate(fam, n, seed), opt)
				if err != nil {
					t.Fatalf("%s n=%d %s: sim.Run: %v", fam, n, rc.name, err)
				}
				fmt.Fprintf(h, "%s/%d/%s:", fam, n, rc.name)
				put(uint64(res.Epochs))
				if res.Reached {
					put(1)
				} else {
					put(0)
				}
				for i, p := range res.Final {
					put(math.Float64bits(p.X))
					put(math.Float64bits(p.Y))
					put(uint64(res.FinalColors[i]))
				}
				if err := trace.WriteJSONL(h, res); err != nil {
					t.Fatalf("%s n=%d %s: WriteJSONL: %v", fam, n, rc.name, err)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != decisionDigest {
		t.Fatalf("LogVis decision digest changed:\n got %s\nwant %s", got, decisionDigest)
	}
}

// cvDigest is the SHA-256 of the Complete Visibility verdicts of every
// run in TestCVDigest: epochs, the first CV epoch, the reached bit and
// the CV bit of every epoch sample. It pins the CV decision itself —
// which the other digests see only through its effect on termination —
// across every family, scheduler and both algorithms.
const cvDigest = "b047cb8bc13e18a6e30afdc430848388deba495b7353cf6892b0b7ced72b0970"

// TestCVDigest hashes the CV verdicts of LogVis and CircleVis runs over
// every configuration family × scheduler at n = 16 and 32, each once
// fault-free and once with two robots crashing early (so the survivor
// verdict is pinned as well as the all-robot one). Runs stop at
// 256 epochs: CircleVis never reaches CV on the line and spokes families,
// and 256 sampled verdicts of such a run pin as much as 4096 would.
func TestCVDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 400 simulations")
	}
	algos := []struct {
		name string
		new  func() model.Algorithm
	}{
		{"logvis", func() model.Algorithm { return core.NewLogVis() }},
		{"circlevis", func() model.Algorithm { return circlevis.NewCircleVis() }},
	}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for _, fam := range config.Families() {
		for _, sn := range sched.Names() {
			for _, al := range algos {
				for _, n := range []int{16, 32} {
					for _, crash := range []bool{false, true} {
						seed := int64(n) + 4000
						opt := sim.DefaultOptions(sched.ByName(sn), seed)
						opt.SampleEpochs = true
						opt.MaxEpochs = 256
						if crash {
							opt.Crashes = []sim.CrashSpec{{Robot: 0, AtEvent: n}, {Robot: n / 2, AtEvent: 2 * n}}
						}
						res, err := sim.Run(al.new(), config.Generate(fam, n, seed), opt)
						if err != nil {
							t.Fatalf("%s %s %s n=%d crash=%v: sim.Run: %v", fam, sn, al.name, n, crash, err)
						}
						fmt.Fprintf(h, "%s/%s/%s/%d/%v:", fam, sn, al.name, n, crash)
						put(uint64(res.Epochs))
						put(uint64(int64(res.FirstCVEpoch)))
						putBool(res.Reached)
						for _, smp := range res.EpochSamples {
							putBool(smp.CV)
						}
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cvDigest {
		t.Fatalf("CV decision digest changed:\n got %s\nwant %s", got, cvDigest)
	}
}
