package core

import (
	"fmt"
	"strings"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// Explain walks the same decision tree as Compute and returns a
// human-readable account of the branch taken and, for an interior
// robot, the verdict on every slot Compute judged, in Compute's order and
// with its checks (the slot marked "ok" is the one the robot moves
// toward). It exists for the diagnostics CLI and for debugging stuck
// runs; the returned text is not part of the stable API.
func (a *LogVis) Explain(s model.Snapshot) string {
	self := s.Self.Pos
	var b strings.Builder
	act := a.Compute(s)
	fmt.Fprintf(&b, "action: target=%v color=%v stay=%v\n", act.Target, act.Color, act.IsStay(self))

	switch len(s.Others) {
	case 0:
		b.WriteString("branch: alone\n")
		return b.String()
	case 1:
		b.WriteString("branch: pair/line-endpoint\n")
		return b.String()
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.load(s)
	if geom.AllCollinear(sc.pts) {
		b.WriteString("branch: collinear view\n")
		return b.String()
	}
	certified := geom.CornerCertified(self, sc.others())
	hull := sc.hull.ConvexHull(sc.pts)
	class := hull.Classify(self)
	fmt.Fprintf(&b, "branch: %v (sees %d, hull corners %d, corner certified %v)\n",
		class, len(s.Others), len(hull.Corners), certified)
	if class == geom.HullEdge {
		for _, o := range s.Others {
			if o.Color == model.Interior || o.Color == model.Transit {
				fmt.Fprintf(&b, "side: waiting on visible %v at %v\n", o.Color, o.Pos)
				break
			}
		}
	}
	if class != geom.HullInterior {
		return b.String()
	}
	fmt.Fprintf(&b, "interior: %d candidate slots\n", len(a.candidateSlots(s, sc)))
	a.computeInterior(s, sc, func(sl slot, local bool, verdict string) {
		pass := "remote"
		if local {
			pass = "local"
		}
		_, t := geom.ProjectOntoLine(sl.u, sl.v, self)
		fmt.Fprintf(&b, "  %s slot %v--%v dist=%.3g t=%.3g: %s\n", pass, sl.u, sl.v, sl.dist, t, verdict)
	})
	return b.String()
}
