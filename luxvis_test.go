package luxvis_test

import (
	"math"
	"testing"
	"time"

	"luxvis"
)

// The façade test doubles as the package's runnable documentation: it
// exercises the whole public surface end to end.

func TestFacadeEndToEnd(t *testing.T) {
	pts := luxvis.Generate(luxvis.Uniform, 24, 1)
	if len(pts) != 24 {
		t.Fatalf("Generate returned %d points", len(pts))
	}
	res, err := luxvis.Run(luxvis.NewLogVis(), pts,
		luxvis.DefaultOptions(luxvis.NewAsyncRandom(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("LogVis did not reach Complete Visibility (epochs=%d)", res.Epochs)
	}
	if res.Collisions != 0 {
		t.Errorf("collisions: %d", res.Collisions)
	}
	if !luxvis.CompleteVisibility(res.Final) {
		t.Error("final configuration not completely visible")
	}
	if !luxvis.StrictlyConvexPosition(res.Final) {
		t.Error("final configuration not strictly convex")
	}
}

func TestFacadeBaseline(t *testing.T) {
	pts := luxvis.Generate(luxvis.CircleStart, 10, 2)
	opt := luxvis.DefaultOptions(luxvis.SchedulerByName("fsync"), 2)
	res, err := luxvis.Run(luxvis.NewSeqVis(), pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Error("baseline failed on an already-convex start")
	}
}

func TestFacadeSchedulers(t *testing.T) {
	names := luxvis.SchedulerNames()
	if len(names) != 5 {
		t.Fatalf("scheduler names = %v", names)
	}
	for _, n := range names {
		if s := luxvis.SchedulerByName(n); s.Name() != n {
			t.Errorf("SchedulerByName(%q).Name() = %q", n, s.Name())
		}
	}
}

func TestFacadeConcurrent(t *testing.T) {
	pts := luxvis.Generate(luxvis.Clustered, 10, 3)
	res, err := luxvis.RunConcurrent(luxvis.NewLogVis(), pts, luxvis.ConcurrentOptions{
		Seed:      3,
		MaxWall:   15 * time.Second,
		MeanDelay: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatal("concurrent run did not stabilize")
	}
	if !luxvis.CompleteVisibility(res.Final) {
		t.Error("concurrent final configuration fails CV")
	}
}

func TestFacadeFamilies(t *testing.T) {
	if got := len(luxvis.Families()); got != 10 {
		t.Errorf("families = %d", got)
	}
	for _, f := range luxvis.Families() {
		pts := luxvis.Generate(f, 5, 1)
		if len(pts) != 5 {
			t.Errorf("%s: wrong size", f)
		}
	}
}

func TestFacadeGeometry(t *testing.T) {
	tri := []luxvis.Point{luxvis.Pt(0, 0), luxvis.Pt(4, 0), luxvis.Pt(2, 3)}
	if !luxvis.CompleteVisibility(tri) {
		t.Error("triangle fails CV")
	}
	line := []luxvis.Point{luxvis.Pt(0, 0), luxvis.Pt(2, 0), luxvis.Pt(4, 0)}
	if luxvis.CompleteVisibility(line) {
		t.Error("line passes CV")
	}
	// Outside input: a non-finite coordinate is rejected, not a panic.
	for _, bad := range []luxvis.Point{luxvis.Pt(math.NaN(), 1), luxvis.Pt(0, math.Inf(-1))} {
		if luxvis.CompleteVisibility(append(tri[:2:2], bad)) {
			t.Errorf("CompleteVisibility accepted non-finite point %v", bad)
		}
	}
}
