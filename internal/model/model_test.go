package model

import (
	"math"
	"testing"

	"luxvis/internal/geom"
)

func TestColorString(t *testing.T) {
	cases := map[Color]string{
		Off: "off", Line: "line", Corner: "corner", Side: "side",
		Interior: "interior", Transit: "transit", Beacon: "beacon", Done: "done",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Color(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := Color(200).String(); got != "color(200)" {
		t.Errorf("out-of-range color = %q", got)
	}
}

func snap(self geom.Point, others ...RobotView) Snapshot {
	return Snapshot{Self: RobotView{Pos: self, Color: Off}, Others: others}
}

func TestCountColorAndAllOthersColored(t *testing.T) {
	s := snap(geom.Pt(0, 0),
		RobotView{Pos: geom.Pt(1, 0), Color: Corner},
		RobotView{Pos: geom.Pt(2, 0), Color: Corner},
		RobotView{Pos: geom.Pt(3, 0), Color: Done},
	)
	if !s.AllOthersColored(Corner, Done) {
		t.Error("AllOthersColored(Corner, Done) = false")
	}
	if s.AllOthersColored(Corner) {
		t.Error("AllOthersColored(Corner) = true despite Done robot")
	}
	if !snap(geom.Pt(0, 0)).AllOthersColored(Corner) {
		t.Error("vacuous AllOthersColored = false")
	}
}

func TestNearest(t *testing.T) {
	s := snap(geom.Pt(0, 0),
		RobotView{Pos: geom.Pt(5, 0), Color: Off},
		RobotView{Pos: geom.Pt(2, 0), Color: Corner},
		RobotView{Pos: geom.Pt(9, 9), Color: Off},
	)
	v, ok := s.Nearest()
	if !ok || !v.Pos.Eq(geom.Pt(2, 0)) {
		t.Errorf("Nearest = %v, %v", v, ok)
	}
	if got := s.NearestDist(); got != 2 {
		t.Errorf("NearestDist = %v", got)
	}
	empty := snap(geom.Pt(0, 0))
	if _, ok := empty.Nearest(); ok {
		t.Error("Nearest on empty view succeeded")
	}
	if got := empty.NearestDist(); !math.IsInf(got, 1) {
		t.Errorf("NearestDist on empty view = %v", got)
	}
}

func TestActions(t *testing.T) {
	p := geom.Pt(1, 2)
	stay := Stay(p, Corner)
	if !stay.IsStay(p) || stay.Color != Corner {
		t.Errorf("Stay = %+v", stay)
	}
	mv := MoveTo(geom.Pt(5, 5), Transit)
	if mv.IsStay(p) {
		t.Error("MoveTo reported as stay")
	}
	if !mv.Target.Eq(geom.Pt(5, 5)) {
		t.Errorf("MoveTo target = %v", mv.Target)
	}
}
