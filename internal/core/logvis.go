// Package core implements LogVis, the reconstruction of the paper's
// O(log N)-time, O(1)-color Complete Visibility algorithm for
// asynchronous robots with lights (Sharma, Vaidyanathan, Trahan, Busch,
// Rai — IPDPS 2017). See DESIGN.md for the provenance note: the phase
// structure below (collinear breakout, Interior Depletion via
// beacon-directed placement on hull edges, Edge Depletion via outward
// bulges, stationary corners) is the published technique of this author
// group for this problem; the abstract's five claims are validated
// empirically by the experiment suite.
//
// The O(log N) engine is the beacon-doubling of Interior Depletion: every
// hull-edge interval between two placed robots (corners and Side robots
// are the beacons) admits one interior robot per epoch, and each landing
// splits its interval in two, so the number of placed robots doubles per
// epoch until the interior is depleted.
package core

import (
	"math"
	"slices"
	"sync"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// LogVis is the asynchronous O(log N)-time Complete Visibility algorithm.
// The zero value is ready to use; Tunables have sane defaults applied at
// first Compute. LogVis is stateless across calls, as the oblivious-robot
// model requires.
type LogVis struct {
	// BulgeFrac scales the Edge Depletion outward bulge: the bulge
	// height is the robot's smallest relevant gap times BulgeFrac
	// (default 1/4). Smaller values are safer near sharp corners but
	// slow convergence slightly.
	BulgeFrac float64
	// SlotMargin is the fraction of a slot interval kept clear at each
	// end when clamping a lander's target (default 1/4).
	SlotMargin float64
	// CorridorFrac scales the clearance margin required around an
	// Interior Depletion corridor, as a fraction of the robot's
	// distance to its nearest visible robot (default 1/8).
	CorridorFrac float64

	// The Ablate* knobs disable individual design decisions so the
	// experiment suite can demonstrate why each exists (experiments A1
	// and A2). They are not part of the algorithm.

	// AblateConstantSagitta replaces the quadratic landing-sagitta law
	// (|uv|²/8D, every landing generation on one common circle) with a
	// constant chord fraction. Expected effect: sub-slot landings poke
	// past the previous generation's curvature, earlier landers get
	// swallowed back into the hull, and the run churns (see DESIGN.md).
	AblateConstantSagitta bool
	// AblateNoTransitGuard drops the one-landing-per-interval Transit
	// guard. Expected effect: concurrent landers race into the same
	// interval and concurrent path crossings rise sharply.
	AblateNoTransitGuard bool
}

// NewLogVis returns a LogVis with default tunables.
func NewLogVis() *LogVis { return &LogVis{} }

// Name implements model.Algorithm.
func (*LogVis) Name() string { return "logvis" }

// Palette implements model.Algorithm: seven colors, constant in N.
func (*LogVis) Palette() []model.Color {
	return []model.Color{
		model.Off, model.Corner, model.Side, model.Interior,
		model.Transit, model.Beacon, model.Done,
	}
}

func (a *LogVis) bulgeFrac() float64 {
	if a.BulgeFrac <= 0 || a.BulgeFrac >= 1 {
		return 0.25
	}
	return a.BulgeFrac
}

func (a *LogVis) slotMargin() float64 {
	if a.SlotMargin <= 0 || a.SlotMargin >= 0.5 {
		return 0.25
	}
	return a.SlotMargin
}

func (a *LogVis) corridorFrac() float64 {
	if a.CorridorFrac <= 0 || a.CorridorFrac >= 1 {
		return 0.125
	}
	return a.CorridorFrac
}

// scratch is the working set of one Compute: the snapshot's points,
// built once, and the buffers of the hull and slot searches. Computes run
// concurrently on one LogVis (internal/rt shares it across its robot
// goroutines), so scratches live in scratchPool, not in the LogVis, and
// nothing in one outlives the Compute that took it.
type scratch struct {
	// pts holds self first, then the others in snapshot order.
	pts        []geom.Point
	hull       geom.HullScratch
	beacons    []geom.Point
	beaconHull geom.HullScratch
	beaconKeys []keyed
	cornerKeys []keyed
	ring       []geom.Point
	slots      []slot
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// load fills pts from the snapshot.
func (sc *scratch) load(s model.Snapshot) {
	sc.pts = append(sc.pts[:0], s.Self.Pos)
	for _, o := range s.Others {
		sc.pts = append(sc.pts, o.Pos)
	}
}

// others returns the visible robots' positions, excluding self.
func (sc *scratch) others() []geom.Point { return sc.pts[1:] }

// diam returns the Euclidean diagonal of the view's bounding box, the
// swarm scale of the landing-sagitta law.
func (sc *scratch) diam() float64 {
	min, max := geom.BoundingBox(sc.pts)
	return max.Sub(min).Norm()
}

// Compute implements model.Algorithm. It allocates nothing once the
// pooled scratch buffers have grown to the view size. A robot whose
// corner status geom.CornerCertified proves in O(V) skips the hull; every
// other robot classifies itself on its view's hull.
func (a *LogVis) Compute(s model.Snapshot) model.Action {
	self := s.Self.Pos
	switch len(s.Others) {
	case 0:
		// Alone in the world: Complete Visibility is vacuous.
		return model.Stay(self, model.Done)
	case 1:
		// Two mutually visible robots, or the endpoint of a line: in
		// both cases this robot is an extreme point and holds.
		return model.Stay(self, model.Corner)
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.load(s)
	if geom.AllCollinear(sc.pts) {
		return a.computeOnLine(s, sc.pts)
	}
	if geom.CornerCertified(self, sc.others()) {
		return a.computeCorner(s)
	}

	hull := sc.hull.ConvexHull(sc.pts)
	switch hull.Classify(self) {
	case geom.HullCorner:
		return a.computeCorner(s)
	case geom.HullEdge:
		return a.computeSide(s, hull, sc.others())
	default:
		return a.computeInterior(s, sc, nil)
	}
}

// computeOnLine handles the degenerate case in which the robot's entire
// view is collinear — which, by the visibility lemma (see
// geom.VisibleSetFast and the tests), happens exactly when the whole
// swarm is collinear. Extremes hold as corners; inner robots step off the
// line perpendicularly by a quarter of their nearest gap. Endpoints stay
// on the original line, so after one epoch the swarm is non-collinear.
func (a *LogVis) computeOnLine(s model.Snapshot, pts []geom.Point) model.Action {
	self := s.Self.Pos
	lo, hi := geom.LineExtremes(pts)
	if pts[lo].Eq(self) || pts[hi].Eq(self) {
		return model.Stay(self, model.Corner)
	}
	// Deterministic side: the left normal of the lexicographically
	// oriented line direction.
	dir := pts[hi].Sub(pts[lo])
	if pts[hi].Less(pts[lo]) {
		dir = dir.Neg()
	}
	n := dir.Perp().Unit()
	d := s.NearestDist() / 4
	if d <= 0 || math.IsInf(d, 0) {
		return model.Stay(self, model.Interior)
	}
	return model.MoveTo(self.Add(n.Mul(d)), model.Transit)
}

// computeCorner handles a robot that is a strict corner of its local
// hull — and therefore, by the locality lemma of this literature, of the
// global hull. Corners never move; they anchor every other phase. A
// corner turns Done when its entire view has settled.
func (a *LogVis) computeCorner(s model.Snapshot) model.Action {
	self := s.Self.Pos
	if s.AllOthersColored(model.Corner, model.Done) {
		return model.Stay(self, model.Done)
	}
	return model.Stay(self, model.Corner)
}

// computeSide handles a robot on a hull edge strictly between corners:
// Edge Depletion. Once no Interior Depletion traffic is visible, the
// robot bulges outward perpendicular to its edge by a quarter of its
// smallest relevant gap, becoming a strict corner of the grown hull.
// Side robots bulge concurrently: their outward paths are parallel
// normals from distinct base points, so they cannot cross.
func (a *LogVis) computeSide(s model.Snapshot, hull geom.Hull, others []geom.Point) model.Action {
	self := s.Self.Pos
	ea, eb, ok := hull.EdgeOf(self)
	if !ok {
		// Numerically ambiguous boundary membership: hold as Side and
		// let the next snapshot resolve it.
		return model.Stay(self, model.Side)
	}
	// Wait out Interior Depletion near this robot: any visible lander
	// in flight or interior robot still to place means the edge is
	// still receiving traffic.
	for _, o := range s.Others {
		if o.Color == model.Interior || o.Color == model.Transit {
			return model.Stay(self, model.Side)
		}
	}
	// Nearest on-line neighbours along the containing edge.
	gap := math.Inf(1)
	for _, o := range s.Others {
		if geom.OnSegment(ea, eb, o.Pos) {
			if d := self.Dist(o.Pos); d < gap {
				gap = d
			}
		}
	}
	if nd := s.NearestDist(); nd < gap {
		gap = nd
	}
	if math.IsInf(gap, 0) || gap <= 0 {
		return model.Stay(self, model.Side)
	}
	outward, ok := a.outwardNormal(s, ea, eb)
	if !ok {
		return model.Stay(self, model.Side)
	}
	h := gap * a.bulgeFrac()
	target := self.Add(outward.Mul(h))
	if !geom.PathClear(self, target, others, h*a.corridorFrac()) {
		return model.Stay(self, model.Side)
	}
	return model.MoveTo(target, model.Beacon)
}

// outwardNormal returns the unit normal of edge (ea, eb) pointing away
// from the hull interior, determined by the side on which off-line
// visible robots lie. ok is false when every visible robot is on the
// edge line (impossible in a non-collinear swarm; see the lemma in the
// line-case comment).
func (a *LogVis) outwardNormal(s model.Snapshot, ea, eb geom.Point) (geom.Point, bool) {
	n := eb.Sub(ea).Perp().Unit()
	for _, o := range s.Others {
		switch geom.Orient(ea, eb, o.Pos) {
		case geom.CCW:
			return n.Neg(), true
		case geom.CW:
			return n, true
		}
	}
	return geom.Point{}, false
}

// slot is a candidate landing interval for Interior Depletion: an empty
// stretch of a hull edge between two visible beacons.
type slot struct {
	u, v geom.Point // beacon positions, interval endpoints
	dist float64    // distance from the robot to the interval segment
}

// slotNote receives each candidate slot computeInterior judges in its
// pass, in try order, with the verdict: "ok" for the slot it moves
// toward, else the reason it passed the slot over. Explain reads the
// decision through it, so the two cannot drift apart.
type slotNote func(sl slot, local bool, verdict string)

const verdictOK = "ok"

// computeInterior handles a robot strictly inside the hull: Interior
// Depletion via beacon-directed placement. The robot finds the nearest
// empty hull-edge interval between two visible beacons (Corner or Side
// lights) with the whole visible swarm on its own side of the interval's
// line, and moves to the clamped foot of its perpendicular on the
// interval. Feet are unique per position, which keeps concurrent landers
// apart; the Transit light plus a projection guard serializes landings
// per interval, which is exactly the one-landing-per-interval-per-epoch
// discipline whose doubling yields O(log N). note, when non-nil, hears
// every verdict.
func (a *LogVis) computeInterior(s model.Snapshot, sc *scratch, note slotNote) model.Action {
	self := s.Self.Pos
	slots := a.candidateSlots(s, sc)
	if len(slots) == 0 {
		return model.Stay(self, model.Interior)
	}
	slices.SortFunc(slots, compareSlots)
	// Bound the work per cycle: try the nearest few intervals and, if
	// all are busy or unreachable, wait for the next cycle. The
	// structural and corridor checks are O(V) each, so this keeps a
	// Compute at O(V log V).
	others := sc.others()
	diam := sc.diam()
	nearest := s.NearestDist()
	// Two passes. First, local landings: slots whose perpendicular slab
	// (with slack) contains the robot and that are at most a few chord
	// lengths away. Local approach paths are short and near-
	// perpendicular to the chord, so concurrent local landers on one
	// edge descend along (near-)parallel corridors; the per-slot
	// Transit guard serializes the final approach per interval (the
	// BDCP one-landing-per-interval discipline) and stacked landers are
	// ordered by the corridor-clearance check. Second, remote flights:
	// anything else, strongly serialized — a long corridor across the
	// swarm can cross any other in-flight path, so a remote flight
	// launches only when no in-flight lander is visible at all and this
	// robot is the uncontested nearest claimant of the slot, and it
	// advances in bounded hops so its active motion segments stay short.
	nearestSlot := slots[0].dist
	for _, local := range []bool{true, false} {
		tries := 0
		maxTries := 8
		if !local {
			maxTries = 64
		}
		for _, sl := range slots {
			if tries++; tries > maxTries {
				break
			}
			if !local && sl.dist > 1.5*nearestSlot+geom.Eps {
				// Remote motion stays radial: only intervals about as
				// close as the closest one are eligible, so long
				// corridors point outward from the robot's own region
				// of the interior and two remote corridors from
				// different origins diverge instead of crossing.
				break
			}
			_, t := geom.ProjectOntoLine(sl.u, sl.v, self)
			chord := sl.u.Dist(sl.v)
			isLocal := t >= -0.25 && t <= 1.25 && sl.dist <= 4*chord
			if local != isLocal {
				continue
			}
			target, verdict := a.judgeSlot(s, sl, local, others, diam, nearest)
			if note != nil {
				note(sl, local, verdict)
			}
			if verdict == verdictOK {
				return model.MoveTo(target, model.Transit)
			}
		}
	}
	return model.Stay(self, model.Interior)
}

// judgeSlot applies computeInterior's checks to one slot of the given
// pass, in order. It returns the target and verdictOK for a slot the
// robot may move toward, else the first check that rejected the slot.
func (a *LogVis) judgeSlot(s model.Snapshot, sl slot, local bool, others []geom.Point, diam, nearest float64) (geom.Point, string) {
	self := s.Self.Pos
	if !a.slotUsable(self, sl.u, sl.v, s.Others) {
		return geom.Point{}, "unusable (occupied, or a robot on the far side)"
	}
	// A robot farther than one hop from its landing point is merely
	// *approaching* the boundary: it drifts a bounded hop along the
	// straight line to the landing point, re-Looking at fresh state
	// between hops. Approaches need no slot claim — any number of deep
	// robots drain outward in parallel, which is what keeps the
	// deep-interior tail from serializing — only the final landing hop
	// claims the interval (contest + Transit guard).
	chord := sl.u.Dist(sl.v)
	hop := math.Max(2*chord, 8*nearest)
	rawTarget, ok := a.landingPoint(self, sl, diam)
	if !ok {
		return geom.Point{}, "degenerate interval"
	}
	if !local && a.slotContested(s, sl) {
		return geom.Point{}, "contested (a nearer claimant is visible)"
	}
	if a.slotBusy(s, sl) {
		return geom.Point{}, "transit guard (lander inbound)"
	}
	target := rawTarget
	if d := self.Dist(rawTarget); !local && d > hop {
		// Hop: re-Look at fresh state every few gap-lengths instead of
		// holding one cross-swarm motion segment active for a long
		// stretch of the schedule.
		target = self.Add(rawTarget.Sub(self).Mul(hop / d))
	}
	// The corridor clearance must stay below the target's own distance
	// to the interval endpoints — or a lone far-away robot (whose
	// nearest neighbour is distant) would reject every corridor for
	// brushing past its interval's anchors — and below a fraction of
	// the corridor's own length, so a millimetre hop is never vetoed by
	// a robot metres away.
	margin := math.Min(nearest*a.corridorFrac(), chord*a.slotMargin()/4)
	margin = math.Min(margin, self.Dist(target)/4)
	if !geom.PathClear(self, target, others, margin) {
		return geom.Point{}, "corridor blocked"
	}
	return target, verdictOK
}

// compareSlots orders candidate slots by distance, then chord length,
// then lexicographic anchors, so a robot's preference order is total and
// deterministic.
func compareSlots(a, b slot) int {
	switch {
	case a.dist < b.dist:
		return -1
	case a.dist > b.dist:
		return 1
	}
	la, lb := a.u.Dist(a.v), b.u.Dist(b.v)
	switch {
	case la < lb:
		return -1
	case la > lb:
		return 1
	}
	switch {
	case a.u.Less(b.u):
		return -1
	case b.u.Less(a.u):
		return 1
	case a.v.Less(b.v):
		return -1
	case b.v.Less(a.v):
		return 1
	}
	return 0
}

// slotContested reports whether a visible competitor has a better claim
// on the interval: an Interior or Transit robot strictly closer to it
// (ties broken by position order). Both contenders see each other and
// evaluate the same comparison, so at most one of any mutually visible
// pair launches a remote flight toward a given interval.
//
// The rule is deliberately strict — defer to *any* nearer competitor.
// Two relaxations were tried and rejected with measurements: dropping
// the rule entirely de-serializes remote flights and large swarms stop
// converging (collisions appear); predicting the competitor's own
// preferred interval and deferring only there costs O(V·S) per Compute
// for a negligible epoch gain. The strict rule's cost is a measurable
// super-logarithmic tail on deep-interior workloads (see T1 and
// DESIGN.md's substitution log).
func (a *LogVis) slotContested(s model.Snapshot, sl slot) bool {
	seg := geom.Seg(sl.u, sl.v)
	myDist := seg.Dist(s.Self.Pos)
	for _, o := range s.Others {
		if o.Color != model.Interior && o.Color != model.Transit {
			continue
		}
		d := seg.Dist(o.Pos)
		// The tie-break needs a strict total order on (distance,
		// position); an epsilon band here would make "contested" fail
		// transitivity and let two robots defer to each other forever.
		//lint:allow floateq exact comparison needed for a total tie-break order
		if d < myDist || (d == myDist && o.Pos.Less(s.Self.Pos)) {
			return true
		}
	}
	return false
}

// candidateSlots enumerates the empty intervals between consecutive
// visible beacons along the boundary of the visible-beacon hull. Beacons
// occupy the hull boundary, so ordering them by angle around the beacon
// hull's centroid (a convex-boundary point has a unique centroid angle)
// yields the boundary ring in O(B log B); consecutive ring members are
// exactly the landing intervals. Stale-colored beacons that are not on
// the boundary anymore are filtered by a single OnSegment check against
// the edge their angle brackets. The structural validity of each
// interval (emptiness, one-sidedness) is checked later, per tried
// interval. The result lives in sc.
func (a *LogVis) candidateSlots(s model.Snapshot, sc *scratch) []slot {
	self := s.Self.Pos
	beacons := sc.beacons[:0]
	for _, o := range s.Others {
		// Done robots are settled corners and anchor slots just as
		// Corner robots do.
		if o.Color == model.Corner || o.Color == model.Side || o.Color == model.Done {
			beacons = append(beacons, o.Pos)
		}
	}
	sc.beacons = beacons
	if len(beacons) < 2 {
		return nil
	}
	cs := sc.beaconHull.ConvexHull(beacons).Corners
	var ring []geom.Point
	switch len(cs) {
	case 0, 1:
		return nil
	case 2:
		ring = sc.collinearRing(cs[0], cs[1])
	default:
		ring = sc.boundaryRing(cs)
	}
	if len(ring) < 2 {
		return nil
	}
	out := sc.slots[:0]
	for k := 0; k+1 < len(ring); k++ {
		out = appendSlot(out, self, ring[k], ring[k+1])
	}
	if len(cs) > 2 {
		out = appendSlot(out, self, ring[len(ring)-1], ring[0]) // close the ring
	}
	sc.slots = out
	return out
}

// appendSlot appends the interval (u, v) unless it is a single point.
func appendSlot(out []slot, self, u, v geom.Point) []slot {
	if u.Eq(v) {
		return out
	}
	return append(out, slot{u: u, v: v, dist: geom.Seg(u, v).Dist(self)})
}

// keyed is a point with a sort key: an angle around a centroid, or a
// parameter along a segment.
type keyed struct {
	p   geom.Point
	key float64
}

func compareKeys(a, b keyed) int {
	switch {
	case a.key < b.key:
		return -1
	case a.key > b.key:
		return 1
	default:
		return 0
	}
}

// collinearRing orders the beacons of a degenerate (collinear) beacon
// set along the segment AB.
func (sc *scratch) collinearRing(A, B geom.Point) []geom.Point {
	run := sc.beaconKeys[:0]
	for _, w := range sc.beacons {
		if geom.OnSegment(A, B, w) {
			_, t := geom.ProjectOntoLine(A, B, w)
			run = append(run, keyed{p: w, key: t})
		}
	}
	sc.beaconKeys = run
	slices.SortFunc(run, compareKeys)
	out := sc.ring[:0]
	for _, r := range run {
		if len(out) > 0 && out[len(out)-1].Eq(r.p) {
			continue
		}
		out = append(out, r.p)
	}
	sc.ring = out
	return out
}

// boundaryRing returns the beacons that lie on the beacon hull's
// boundary, in CCW order, in O(B log B): sort everything by angle around
// the hull centroid, then sweep the hull edges in the same angular order
// and keep each beacon only if it sits on the edge its angle brackets.
func (sc *scratch) boundaryRing(corners []geom.Point) []geom.Point {
	c := geom.Centroid(corners)
	all := sc.beaconKeys[:0]
	for _, w := range sc.beacons {
		all = append(all, keyed{p: w, key: w.Sub(c).Angle()})
	}
	sc.beaconKeys = all
	slices.SortFunc(all, compareKeys)

	// Corners in the same angular order; corners are a subset of the
	// beacons, so their angles appear in all too. Corner angles are
	// distinct around the interior centroid.
	cs := sc.cornerKeys[:0]
	for _, p := range corners {
		cs = append(cs, keyed{p: p, key: p.Sub(c).Angle()})
	}
	sc.cornerKeys = cs
	slices.SortFunc(cs, compareKeys)

	out := sc.ring[:0]
	for _, w := range all {
		// The hull edge whose angular wedge contains w: from the last
		// sorted corner with angle <= w's (wrapping past -π) to the
		// next one.
		lo, hi := 0, len(cs)
		for lo < hi {
			mid := (lo + hi) / 2
			if cs[mid].key <= w.key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		k := lo - 1
		if k < 0 {
			k = len(cs) - 1
		}
		ea, eb := cs[k].p, cs[(k+1)%len(cs)].p
		if w.p.Eq(ea) || w.p.Eq(eb) || geom.OnSegment(ea, eb, w.p) {
			if len(out) > 0 && out[len(out)-1].Eq(w.p) {
				continue
			}
			out = append(out, w.p)
		}
	}
	sc.ring = out
	return out
}

// slotUsable checks the two structural conditions on an interval (u, v):
// the open segment holds no visible robot, and no settled visible robot
// lies strictly on the far side of its line (so the interval plausibly
// spans a hull-boundary stretch as seen from here). In-flight landers
// (Transit/Beacon lights) are exempt from the far-side condition: they
// legitimately sit just outside the chord of the slot they are landing
// in, and the Transit guard — not this check — arbitrates slot busyness.
// The robot itself must be strictly off the line.
func (a *LogVis) slotUsable(self, u, v geom.Point, others []model.RobotView) bool {
	mySide := geom.Orient(u, v, self)
	if mySide == geom.Collinear {
		return false
	}
	for _, w := range others {
		if w.Pos.Eq(u) || w.Pos.Eq(v) {
			continue
		}
		if geom.StrictlyBetween(u, v, w.Pos) {
			return false
		}
		if w.Color == model.Transit || w.Color == model.Beacon {
			continue
		}
		if o := geom.Orient(u, v, w.Pos); o != geom.Collinear && o != mySide {
			return false
		}
	}
	return true
}

// arcFracCap caps the sagitta of a landing arc as a fraction of its
// chord. Landers touch down on a shallow circular arc bulging slightly
// outward of the hull between the two anchor beacons, so a landed robot
// is a strict corner of the grown hull immediately. Direct corner
// insertion is what makes Interior Depletion monotone — a landed robot
// never becomes a Side robot and never re-enters the interior, which
// rules out the land/bulge/reclassify churn observed with on-chord
// landings.
const arcFracCap = 1.0 / 16

// landingSagitta returns the outward bulge height for a landing over a
// chord of the given length, in a swarm of visible diameter diam. The
// quadratic scaling |uv|²/(8·diam) makes every generation of landings
// approximate one common circle of radius ~diam: with a constant
// chord-fraction sagitta instead, each sub-slot landing pokes out
// proportionally more than the local curvature of the previous
// generation, flattening and eventually swallowing earlier landers — the
// churn loop observed at N ≥ 128.
func landingSagitta(chord, diam float64) float64 {
	h := chord * arcFracCap
	if diam > 0 {
		if q := chord * chord / (8 * diam); q < h {
			h = q
		}
	}
	return h
}

// landingPoint computes where the robot would land in the interval: its
// perpendicular-foot parameter, squashed strictly monotonically into the
// interval's interior, evaluated on the outward landing arc. Distinct
// robot positions map to distinct landing points (a hard clamp would
// collapse everything below the margin onto one exact point — that
// colocation was observed under the randomized ASYNC scheduler before
// the squash).
func (a *LogVis) landingPoint(self geom.Point, sl slot, diam float64) (geom.Point, bool) {
	_, t := geom.ProjectOntoLine(sl.u, sl.v, self)
	// Feet inside the margins are kept exact, so robots above the
	// interval descend along parallel perpendiculars and cannot cross;
	// feet outside are mapped just inside the margin by a continuous,
	// strictly monotone squash whose targets stay close to their feet,
	// so corridors never graze far along the edge. The end margin
	// shrinks for robots already hugging the chord: a robot a hair
	// inside the hull should hop out along (nearly) its own
	// perpendicular instead of being dragged a quarter-interval
	// sideways along a grazing corridor that everything nearby blocks.
	m := a.slotMargin()
	chord := sl.u.Dist(sl.v)
	if chord <= 0 {
		return geom.Point{}, false
	}
	if f := geom.Seg(sl.u, sl.v).Dist(self) / chord; f < m {
		m = math.Max(f, 1.0/32)
	}
	switch {
	case t < m:
		x := m - t
		t = m - (m/2)*(x/(x+1))
	case t > 1-m:
		x := t - (1 - m)
		t = 1 - m + (m/2)*(x/(x+1))
	}
	// Land on the outward arc over the chord (u, v): bulge away from
	// the robot's own (interior) side, at the sagitta of a view of
	// bounding-box diagonal diam.
	if a.AblateConstantSagitta {
		diam = 0 // disables the quadratic law; the cap fraction applies
	}
	h := landingSagitta(chord, diam)
	if h <= 0 || math.IsInf(h, 0) || math.IsNaN(h) {
		// Degenerate scales (the quadratic law underflowed against an
		// astronomically large visible diameter, or a non-finite
		// input): no safe arc exists over this chord.
		return geom.Point{}, false
	}
	if geom.Orient(sl.u, sl.v, self) == geom.CCW {
		h = -h
	}
	arc := geom.ArcThrough(sl.u, sl.v, h)
	return arc.At(t), true
}

// slotBusy applies the Transit guard: an interval with a visible
// in-flight lander nearby admits no second landing until the first
// settles. One landing per interval at a time is the BDCP discipline
// whose doubling yields the O(log N) bound; racing landers that slip
// past the guard on stale snapshots land at distinct points on the same
// arc along near-parallel perpendiculars, so the residual race is
// benign. In-flight robots far from the interval merely happen to
// project into its slab and are ignored — without the distance test, a
// handful of distant flights marks most of the boundary busy.
func (a *LogVis) slotBusy(s model.Snapshot, sl slot) bool {
	if a.AblateNoTransitGuard {
		return false
	}
	chord := sl.u.Dist(sl.v)
	seg := geom.Seg(sl.u, sl.v)
	for _, o := range s.Others {
		if o.Color != model.Transit {
			continue
		}
		_, to := geom.ProjectOntoLine(sl.u, sl.v, o.Pos)
		if to > -0.125 && to < 1.125 && seg.Dist(o.Pos) <= 8*chord {
			return true
		}
	}
	return false
}
