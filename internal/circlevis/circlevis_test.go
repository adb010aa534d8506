package circlevis_test

import (
	"sync"
	"testing"

	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/exact"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

func TestCircleVisBasics(t *testing.T) {
	a := circlevis.NewCircleVis()
	if a.Name() != "circlevis" {
		t.Errorf("Name = %q", a.Name())
	}
	if len(a.Palette()) != 4 {
		t.Errorf("palette = %d", len(a.Palette()))
	}
}

func TestCircleVisSettledRobotStays(t *testing.T) {
	a := circlevis.NewCircleVis()
	// Three robots on a common circle: each is on its view's SEC
	// boundary and must hold.
	s := model.Snapshot{
		Self: model.RobotView{Pos: geom.Pt(10, 0), Color: model.Off},
		Others: []model.RobotView{
			{Pos: geom.Pt(-5, 8.66), Color: model.Corner},
			{Pos: geom.Pt(-5, -8.66), Color: model.Corner},
		},
	}
	act := a.Compute(s)
	if !act.IsStay(geom.Pt(10, 0)) {
		t.Errorf("on-circle robot moved: %+v", act)
	}
}

func TestCircleVisInteriorMovesOutward(t *testing.T) {
	a := circlevis.NewCircleVis()
	s := model.Snapshot{
		Self: model.RobotView{Pos: geom.Pt(2, 1), Color: model.Off},
		Others: []model.RobotView{
			{Pos: geom.Pt(10, 0), Color: model.Off},
			{Pos: geom.Pt(-10, 0), Color: model.Off},
			{Pos: geom.Pt(0, 10), Color: model.Off},
			{Pos: geom.Pt(0, -10), Color: model.Off},
		},
	}
	act := a.Compute(s)
	if act.IsStay(geom.Pt(2, 1)) {
		t.Fatal("interior robot did not move")
	}
	if act.Color != model.Transit {
		t.Errorf("mover color = %v", act.Color)
	}
	// Radial: the target must be farther from the SEC center (≈ origin).
	if act.Target.Norm() <= geom.Pt(2, 1).Norm() {
		t.Errorf("move not outward: %v", act.Target)
	}
}

func TestCircleVisConvergesGeneric(t *testing.T) {
	for _, fam := range []config.Family{config.Uniform, config.Clustered, config.Circle, config.Onion} {
		for _, n := range []int{6, 12, 24} {
			pts := config.Generate(fam, n, 5)
			opt := sim.DefaultOptions(sched.NewAsyncRandom(), 5)
			opt.MaxEpochs = 2000
			res, err := sim.Run(circlevis.NewCircleVis(), pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reached {
				t.Errorf("%s n=%d: did not converge in %d epochs", fam, n, res.Epochs)
				continue
			}
			if res.Collisions != 0 {
				t.Errorf("%s n=%d: %d collisions", fam, n, res.Collisions)
			}
			if !exact.CompleteVisibilityHybrid(res.Final) {
				t.Errorf("%s n=%d: final config fails exact CV", fam, n)
			}
		}
	}
}

func TestCircleVisAlone(t *testing.T) {
	a := circlevis.NewCircleVis()
	act := a.Compute(model.Snapshot{Self: model.RobotView{Pos: geom.Pt(1, 1)}})
	if !act.IsStay(geom.Pt(1, 1)) || act.Color != model.Done {
		t.Errorf("alone: %+v", act)
	}
}

// fullView is robot i's snapshot when it sees every other robot, all
// lit Corner.
func fullView(pts []geom.Point, i int) model.Snapshot {
	s := model.Snapshot{Self: model.RobotView{Pos: pts[i]}}
	for j, p := range pts {
		if j != i {
			s.Others = append(s.Others, model.RobotView{Pos: p, Color: model.Corner})
		}
	}
	return s
}

// TestCircleVisComputeConcurrent: the goroutine runtime calls Compute
// from one goroutine per robot, so calls in flight must never share a
// pooled point buffer. Run it under -race.
func TestCircleVisComputeConcurrent(t *testing.T) {
	pts := config.Generate(config.Uniform, 48, 4)
	a := circlevis.NewCircleVis()
	want := make([]model.Action, len(pts))
	for i := range pts {
		want[i] = a.Compute(fullView(pts, i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i := range pts {
					k := (i + 7*g) % len(pts)
					if got := a.Compute(fullView(pts, k)); got != want[k] {
						t.Errorf("goroutine %d: Compute for robot %d = %+v, sequential call gave %+v", g, k, got, want[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
