package core_test

import (
	"fmt"
	"sync"
	"testing"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/scenario"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// certChecker wraps LogVis and checks geom.CornerCertified against the
// full hull on every snapshot the engine hands it: a certified robot
// must be a corner of ConvexHull(view).
type certChecker struct {
	t     *testing.T
	label string
	inner *core.LogVis
	pts   []geom.Point

	calls, corners, certified, unsound int
}

func (c *certChecker) Name() string           { return c.inner.Name() }
func (c *certChecker) Palette() []model.Color { return c.inner.Palette() }

func (c *certChecker) Compute(s model.Snapshot) model.Action {
	act := c.inner.Compute(s)
	if len(s.Others) < 2 {
		return act
	}
	self := s.Self.Pos
	c.pts = append(c.pts[:0], self)
	for _, o := range s.Others {
		c.pts = append(c.pts, o.Pos)
	}
	c.calls++
	// Only LogVis's corner branch lights Corner or Done off a line.
	if (act.Color == model.Corner || act.Color == model.Done) && !geom.AllCollinear(c.pts) {
		c.corners++
	}
	if !geom.CornerCertified(self, c.pts[1:]) {
		return act
	}
	c.certified++
	if class := geom.ConvexHull(c.pts).Classify(self); class != geom.HullCorner {
		c.unsound++
		if c.unsound <= 3 {
			c.t.Errorf("%s: certified a robot the hull classifies %v: self=%v view=%v",
				c.label, class, self, c.pts[1:])
		}
	}
	return act
}

// TestCornerCertificateSoundOnRuns records every LogVis snapshot of
// every configuration family at n = 24, 48 and 128, clean and under the
// scenario suite's sensor-jitter and non-rigid rows, and asserts the
// certificate never certifies a robot that is not a hull corner. It also
// pins the certificate's usefulness: it must settle most corner calls,
// or Compute falls back to the hull and loses its speed.
func TestCornerCertificateSoundOnRuns(t *testing.T) {
	sizes := []int{24, 48, 128}
	if testing.Short() {
		sizes = []int{24}
	}
	var mu sync.Mutex
	var calls, corners, certified int
	t.Run("runs", func(t *testing.T) {
		for _, n := range sizes {
			var rows []scenario.NamedConfig
			for _, nc := range scenario.Stressors(n) {
				switch nc.Name {
				case "none", "jitter", "nonrigid-min":
					rows = append(rows, nc)
				}
			}
			for _, fam := range config.Families() {
				t.Run(fmt.Sprintf("%s/n=%d", fam, n), func(t *testing.T) {
					t.Parallel()
					for _, row := range rows {
						seed := int64(n) + 500
						opt := sim.DefaultOptions(sched.NewAsyncRandom(), seed)
						opt.MaxEpochs = 48
						if err := row.Cfg.Apply(&opt, n); err != nil {
							t.Fatal(err)
						}
						c := &certChecker{t: t, label: row.Name, inner: core.NewLogVis()}
						if _, err := sim.Run(c, config.Generate(fam, n, seed), opt); err != nil {
							t.Fatalf("%s: %v", row.Name, err)
						}
						if c.unsound > 0 {
							t.Errorf("%s: %d unsound certificates", row.Name, c.unsound)
						}
						mu.Lock()
						calls += c.calls
						corners += c.corners
						certified += c.certified
						mu.Unlock()
					}
				})
			}
		}
	})
	t.Logf("%d Compute calls, %d hull corners, %d certified (%.1f%%)",
		calls, corners, certified, 100*float64(certified)/float64(corners))
	if float64(certified) < 0.9*float64(corners) {
		t.Errorf("certificate settled %d of %d corner calls, want at least 90%%", certified, corners)
	}
}
