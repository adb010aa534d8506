// Package circlevis implements CircleVis, a simple reference strategy
// for Complete Visibility inspired by the "move onto a common circle"
// family of mutual-visibility algorithms (Di Luna, Flocchini, Chaudhuri,
// Poloni, Santoro, Viglietta — Information & Computation 2017). Robots
// converge onto the boundary of the smallest enclosing circle of their
// view: points on a common circle are in strictly convex position, so a
// fully-on-circle swarm satisfies Complete Visibility.
//
// CircleVis exists as a second comparison point beside the paper's
// LogVis and the SeqVis translation: it is structurally different
// (no beacons, no interval bookkeeping — pure radial motion) and its
// per-epoch parallelism is high, but robots sharing a radial ray must
// serialize, it never terminates-by-proof on symmetric inputs, and its
// movement cost is higher. Experiment F8 measures all of this. It is a
// reference implementation, not part of the paper's contribution.
package circlevis

import (
	"math"
	"sync"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// CircleVis moves every robot radially onto the smallest enclosing
// circle of its view. The zero value is ready to use.
type CircleVis struct {
	// StepFrac is the fraction of the remaining radial distance covered
	// per move (default 1: go straight to the boundary when the path is
	// clear).
	StepFrac float64
}

// NewCircleVis returns a CircleVis with default tunables.
func NewCircleVis() *CircleVis { return &CircleVis{} }

// Name implements model.Algorithm.
func (*CircleVis) Name() string { return "circlevis" }

// Palette implements model.Algorithm: four colors.
func (*CircleVis) Palette() []model.Color {
	return []model.Color{model.Off, model.Corner, model.Transit, model.Done}
}

func (a *CircleVis) stepFrac() float64 {
	if a.StepFrac <= 0 || a.StepFrac > 1 {
		return 1
	}
	return a.StepFrac
}

// pointsPool holds Compute's point buffers. Compute runs concurrently
// under the goroutine runtime, so a buffer belongs to one Compute and
// nothing in it outlives the call.
var pointsPool = sync.Pool{New: func() any { return new([]geom.Point) }}

// Compute implements model.Algorithm. It allocates nothing once the
// pooled buffer has grown to the view size.
func (a *CircleVis) Compute(s model.Snapshot) model.Action {
	self := s.Self.Pos
	if len(s.Others) == 0 {
		return model.Stay(self, model.Done)
	}
	buf := pointsPool.Get().(*[]geom.Point)
	defer pointsPool.Put(buf)
	// pts holds self first, then the others in snapshot order.
	pts := append((*buf)[:0], self)
	for _, o := range s.Others {
		pts = append(pts, o.Pos)
	}
	*buf = pts
	sec := geom.MinEnclosingCircle(pts)

	if sec.OnBoundary(self) {
		// Settled. Done once everything visible has settled too.
		if s.AllOthersColored(model.Corner, model.Done) {
			return model.Stay(self, model.Done)
		}
		return model.Stay(self, model.Corner)
	}

	// Radial target on the boundary. Robots exactly at the center have
	// no ray; nudge along the direction to the nearest visible robot.
	dir := self.Sub(sec.Center)
	if dir.Norm() < geom.Eps*math.Max(1, sec.R) {
		v, _ := s.Nearest()
		dir = v.Pos.Sub(self)
		if dir.Norm() <= geom.Eps {
			return model.Stay(self, model.Off)
		}
	}
	dir = dir.Unit()
	boundary := sec.Center.Add(dir.Mul(sec.R))
	target := self.Lerp(boundary, a.stepFrac())

	// Radial corridors from a (nearly) common center do not cross, but
	// robots sharing a ray must serialize: the outer robot moves first,
	// the inner one sees it in its corridor and waits. The Transit light
	// additionally yields to any mover whose current position is near
	// this corridor.
	margin := s.NearestDist() / 8
	margin = math.Min(margin, self.Dist(target)/4)
	obstacles := pts[1:]
	if !geom.PathClear(self, target, obstacles, margin) {
		// Try a shorter hop, then a slightly rotated boundary slot —
		// the escape hatch for robots sharing a ray with an already
		// settled robot (their radial target is occupied forever).
		target = self.Lerp(boundary, a.stepFrac()/2)
		if !geom.PathClear(self, target, obstacles, math.Min(margin, self.Dist(target)/4)) {
			rot := s.NearestDist() / math.Max(sec.R, geom.Eps) / 4
			rotated := boundary.RotateAround(sec.Center, rot)
			target = self.Lerp(rotated, a.stepFrac()/2)
			if !geom.PathClear(self, target, obstacles, math.Min(margin, self.Dist(target)/4)) {
				return model.Stay(self, model.Off)
			}
		}
	}
	for _, o := range s.Others {
		if o.Color != model.Transit {
			continue
		}
		if geom.Seg(self, target).Dist(o.Pos) < 4*margin {
			return model.Stay(self, model.Off)
		}
	}
	return model.MoveTo(target, model.Transit)
}

// compile-time interface check
var _ model.Algorithm = (*CircleVis)(nil)
