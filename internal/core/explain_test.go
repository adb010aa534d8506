package core

import (
	"fmt"
	"strings"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// squareWithBottomBeacons is a 100×100 square of Corner robots whose
// bottom edge carries Side robots one unit apart, so every bottom slot
// has chord 1, plus the given extra robots.
func squareWithBottomBeacons(self geom.Point, extra ...model.RobotView) model.Snapshot {
	others := []model.RobotView{
		view(geom.Pt(0, 0), model.Corner), view(geom.Pt(100, 0), model.Corner),
		view(geom.Pt(100, 100), model.Corner), view(geom.Pt(0, 100), model.Corner),
	}
	for x := 1; x < 100; x++ {
		others = append(others, view(geom.Pt(float64(x), 0), model.Side))
	}
	return snapOf(self, model.Interior, append(others, extra...)...)
}

// explainLines returns Explain's slot lines whose verdict is v.
func explainLines(out, verdict string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, " slot ") && strings.HasSuffix(l, ": "+verdict) {
			lines = append(lines, l)
		}
	}
	return lines
}

func slotLabel(u, v geom.Point) string { return fmt.Sprintf("slot %v--%v ", u, v) }

// TestExplainOKSlotIsComputeTarget: the robot's own slot (50,0)–(51,0)
// is busy with an inbound lander, so Compute moves toward a neighbour
// slot in the remote pass. Explain must mark the busy slot and name the
// neighbour — the slot whose outward arc holds Compute's target — as the
// only "ok".
func TestExplainOKSlotIsComputeTarget(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(50.5, 2)
	s := squareWithBottomBeacons(self, view(geom.Pt(50.5, 7.5), model.Transit))
	act := a.Compute(s)
	if act.IsStay(self) || act.Color != model.Transit {
		t.Fatalf("Compute = %+v, want a Transit move", act)
	}
	out := a.Explain(s)
	busy := explainLines(out, "transit guard (lander inbound)")
	if len(busy) != 1 || !strings.Contains(busy[0], slotLabel(geom.Pt(50, 0), geom.Pt(51, 0))) {
		t.Errorf("busy slot not reported as guarded: %v\n%s", busy, out)
	}
	ok := explainLines(out, "ok")
	if len(ok) != 1 {
		t.Fatalf("Explain reports %d ok slots, want 1:\n%s", len(ok), out)
	}
	u, v := geom.Pt(49, 0), geom.Pt(50, 0)
	if !strings.Contains(ok[0], slotLabel(u, v)) || !strings.HasPrefix(strings.TrimSpace(ok[0]), "remote") {
		t.Fatalf("ok slot = %q, want the remote slot %v--%v", ok[0], u, v)
	}
	// Compute's target lands on that slot's outward arc: past the chord
	// from the robot's side, within the chord's span.
	if geom.Orient(u, v, act.Target) != -geom.Orient(u, v, self) {
		t.Errorf("target %v is not past the chord %v--%v", act.Target, u, v)
	}
	if _, tt := geom.ProjectOntoLine(u, v, act.Target); tt <= 0 || tt >= 1 {
		t.Errorf("target %v projects to t=%v, outside the chord %v--%v", act.Target, tt, u, v)
	}
}

// TestExplainReportsContested: every slot near the robot is remote and
// a nearer Interior robot claims it, so Compute stays. Explain must say
// "contested" for those slots and "ok" for none.
func TestExplainReportsContested(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(50.5, 20)
	s := squareWithBottomBeacons(self, view(geom.Pt(50.5, 10), model.Interior))
	if act := a.Compute(s); !act.IsStay(self) || act.Color != model.Interior {
		t.Fatalf("Compute = %+v, want Stay Interior", act)
	}
	out := a.Explain(s)
	if ok := explainLines(out, "ok"); len(ok) != 0 {
		t.Errorf("Explain reports ok slots for a robot that stays: %v\n%s", ok, out)
	}
	contested := explainLines(out, "contested (a nearer claimant is visible)")
	if len(contested) == 0 || !strings.Contains(contested[0], slotLabel(geom.Pt(50, 0), geom.Pt(51, 0))) {
		t.Errorf("nearest slot not reported as contested:\n%s", out)
	}
}
