package exact_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

var updateFixture = flag.Bool("update-fixture", false, "rewrite testdata/circlevis_uniform_n384_seed1.txt")

// TestCircleVisFixture checks that the benchmark fixture is what a
// CircleVis run at n=384 on uniform configuration 1, seed 1 (512-epoch
// cap) ends in, and rewrites it under -update-fixture.
func TestCircleVisFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs CircleVis at n=384")
	}
	opt := sim.DefaultOptions(sched.NewAsyncRandom(), 1)
	opt.MaxEpochs = 512
	res, err := sim.Run(circlevis.NewCircleVis(), config.Generate(config.Uniform, 384, 1), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("the run did not reach Complete Visibility")
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "# Final positions of CircleVis, n=384, uniform configuration 1, seed 1, async-random.")
	fmt.Fprintln(&buf, "# Regenerate: go test ./internal/exact -run '^TestCircleVisFixture$' -update-fixture")
	for _, p := range res.Final {
		fmt.Fprintln(&buf, strconv.FormatFloat(p.X, 'g', -1, 64), strconv.FormatFloat(p.Y, 'g', -1, 64))
	}
	path := filepath.Join("testdata", "circlevis_uniform_n384_seed1.txt")
	if *updateFixture {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-fixture): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s differs from the run's final positions; CircleVis decisions changed", path)
	}
}
