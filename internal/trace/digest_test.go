package trace_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"luxvis/internal/config"
	"luxvis/internal/core"
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
