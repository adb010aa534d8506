package geom

import (
	"math/rand"
	"slices"
	"testing"
)

func TestVisibleBasic(t *testing.T) {
	// 0 --- 1 --- 2 on a line: 1 blocks 0 from 2.
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}
	want := [][]int{{1}, {0, 2}, {1}}
	for i := range pts {
		if got := VisibleSetFast(pts, i); !slices.Equal(got, want[i]) {
			t.Errorf("VisibleSetFast(line, %d) = %v, want %v (adjacent pairs visible, 0-2 blocked, never self)", i, got, want[i])
		}
	}
}

func TestVisibleCoincident(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(0, 0)}
	if got := VisibleSetFast(pts, 0); len(got) != 0 {
		t.Errorf("coincident points reported visible: %v", got)
	}
}

func TestVisibleFromAndBlockers(t *testing.T) {
	// Point 1 blocks 0 from 2; 3 is off the line.
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0), Pt(5, 5)}
	want := []int{1, 3}
	if vis := VisibleFrom(pts, 0); !slices.Equal(vis, want) {
		t.Fatalf("VisibleFrom = %v, want %v", vis, want)
	}
	if vis := VisibleSetFast(pts, 0); !slices.Equal(vis, want) {
		t.Fatalf("VisibleSetFast = %v, want %v", vis, want)
	}
}

// snapshotCV loads pts into a fresh snapshot and reads Complete
// Visibility off its rows.
func snapshotCV(pts []Point, alive []bool) bool {
	k := NewKernel(1)
	defer k.Close()
	s := k.NewSnapshot()
	s.Reset(pts)
	return s.CompleteVisibility(alive)
}

func TestCompleteVisibility(t *testing.T) {
	line := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}
	cases := []struct {
		name  string
		pts   []Point
		alive []bool
		want  bool
	}{
		{"triangle", []Point{Pt(0, 0), Pt(4, 0), Pt(2, 4)}, nil, true},
		{"line", line, nil, false},
		{"duplicate points", []Point{Pt(0, 0), Pt(0, 0)}, nil, false},
		{"single point", []Point{Pt(1, 1)}, nil, true},
		{"empty", nil, nil, true},
		// Interior point in general position: CV without convex position.
		{"interior point", []Point{Pt(0, 0), Pt(10, 0), Pt(5, 10), Pt(5, 3)}, nil, true},
		{"line, crashed middle still obstructs", line, []bool{true, false, true}, false},
		{"line, crashed end", line, []bool{true, true, false}, true},
		{"line, all alive", line, []bool{true, true, true}, false},
		{"duplicate of a crashed robot", []Point{Pt(0, 0), Pt(0, 0), Pt(3, 1)}, []bool{true, false, true}, true},
	}
	for _, tc := range cases {
		if got := snapshotCV(tc.pts, tc.alive); got != tc.want {
			t.Errorf("%s: Snapshot.CompleteVisibility(%v) = %v, want %v", tc.name, tc.alive, got, tc.want)
		}
		if got := CompleteVisibilityNaive(tc.pts, tc.alive); got != tc.want {
			t.Errorf("%s: reference = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestVisibilityCountAndBlockedPairs(t *testing.T) {
	// Two visible pairs, and the blocked pair (0, 2) is the one missing
	// from the rows.
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}
	seen := 0
	for i := range pts {
		seen += len(VisibleSetFast(pts, i))
	}
	if got := seen / 2; got != 2 {
		t.Errorf("visible pairs = %d, want 2", got)
	}
	if slices.Contains(VisibleSetFast(pts, 0), 2) || slices.Contains(VisibleSetFast(pts, 2), 0) {
		t.Error("blocked pair (0, 2) present in the rows")
	}
}

func TestPathClear(t *testing.T) {
	obstacles := []Point{Pt(5, 0), Pt(3, 2)}
	if PathClear(Pt(0, 0), Pt(10, 0), obstacles, 0) {
		t.Error("path through obstacle reported clear")
	}
	if !PathClear(Pt(0, 0), Pt(10, 5), obstacles, 0) {
		t.Error("clear path reported blocked")
	}
	// Margin widens the corridor.
	if PathClear(Pt(0, 0), Pt(10, 4), obstacles, 1.5) {
		t.Error("margin violation not detected")
	}
	// Destination occupied.
	if PathClear(Pt(0, 0), Pt(5, 0), obstacles, 0) {
		t.Error("occupied destination reported clear")
	}
	// Own position in the obstacle list is ignored.
	if !PathClear(Pt(3, 2), Pt(3, 5), obstacles, 0) {
		t.Error("own position blocked the path")
	}
}

func TestCompleteVisibilityFastAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPt(rng)
		}
		// Half the trials get a forced collinear triple.
		if trial%2 == 0 && n >= 3 {
			pts[2] = pts[0].Mid(pts[1])
		}
		var alive []bool
		if trial%3 == 0 {
			alive = make([]bool, n)
			for i := range alive {
				alive[i] = rng.Intn(3) != 0
			}
		}
		naive := CompleteVisibilityNaive(pts, alive)
		if got := snapshotCV(pts, alive); got != naive {
			t.Fatalf("disagreement on %v alive=%v: naive=%v snapshot=%v", pts, alive, naive, got)
		}
	}
}

func TestVisibleSetFastAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(25)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPt(rng)
		}
		// Force collinear structure in half the trials.
		if trial%2 == 0 && n >= 4 {
			pts[1] = pts[0].Lerp(pts[2], 0.5)
			pts[3] = pts[0].Lerp(pts[2], 2)
		}
		for i := 0; i < n; i++ {
			fast := VisibleSetFast(pts, i)
			naive := VisibleFrom(pts, i)
			if len(fast) != len(naive) {
				t.Fatalf("trial %d robot %d: fast=%v naive=%v pts=%v", trial, i, fast, naive, pts)
			}
			for k := range fast {
				if fast[k] != naive[k] {
					t.Fatalf("trial %d robot %d: fast=%v naive=%v", trial, i, fast, naive)
				}
			}
		}
	}
}

func TestCollinearTriples(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0), Pt(3, 7)}
	triples := CollinearCandidates(pts, 0)
	// The blocked configuration must be detected from the blocker's
	// perspective: some candidate must name point 1 (the middle) as the
	// blocker of the outer pair.
	found := false
	for _, tr := range triples {
		if tr.Blocker == 1 && (tr.A == 0 && tr.B == 2 || tr.A == 2 && tr.B == 0) {
			found = true
		}
	}
	if !found {
		t.Errorf("outer pair through the middle absent from candidates %v", triples)
	}
	if got := CollinearCandidates([]Point{Pt(0, 0), Pt(5, 0), Pt(5, 5)}, 0); len(got) != 0 {
		t.Errorf("triangle produced candidates %v", got)
	}
}

// The line-visibility lemma the algorithm relies on: in a non-collinear
// swarm, every robot sees at least one robot off any line through it.
func TestOffLineVisibilityLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(20)
		pts := make([]Point, n)
		// Most robots on a line, a few off it.
		for i := range pts {
			x := rng.Float64() * 100
			pts[i] = Pt(x, x*0.5)
		}
		pts[n-1] = Pt(rng.Float64()*100, rng.Float64()*100+200)
		for i := range pts {
			vis := VisibleSetFast(pts, i)
			allCollinear := true
			viewPts := []Point{pts[i]}
			for _, j := range vis {
				viewPts = append(viewPts, pts[j])
			}
			allCollinear = AllCollinear(viewPts)
			if allCollinear {
				t.Fatalf("robot %d sees an all-collinear view in a non-collinear swarm", i)
			}
		}
	}
}
