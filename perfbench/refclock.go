package main

import (
	"math/rand"
	"runtime"
	"sort"
)

// refClock measures how fast the host runs right now. The benchmark's
// host is a virtual machine on a shared machine, and how fast it runs the
// same work drifts by 10–20% over minutes as its neighbours come and go,
// in CPU time as well as wall time. Between operations the benchmark runs
// a fixed unit of reference work, one unit per refEvery of workload CPU
// time, and scales its CPU times by refNominal over the median unit: a
// slower spell slows the units too, so the scaled times keep what the
// program did and lose much of the drift (on the host of record, about
// half of the spread between runs of the same workload).
//
// The unit sorts a fixed slice and updates a fixed map: memory traffic
// and branches, like the engine, but it allocates nothing after set-up,
// so the program's heap does not change its cost.
type refClock struct {
	src, buf []float64
	m        map[int]float64
	owed     float64   // workload CPU seconds since the last unit
	units    []float64 // thread CPU seconds of each unit run
	total    float64   // process CPU seconds over all units
	sink     float64   // keeps the unit's result live
}

const (
	// refEvery is the workload CPU time per reference unit.
	refEvery = 0.05
	// refNominal is the median CPU time of one unit on the host of
	// record (2-core Intel Xeon virtual machine, go1.24), so scaled
	// times read as CPU seconds there.
	refNominal = 0.0022
	refLen     = 16384
)

func newRefClock() *refClock {
	r := rand.New(rand.NewSource(1))
	c := &refClock{src: make([]float64, refLen), buf: make([]float64, refLen), m: make(map[int]float64, 1024)}
	for i := range c.src {
		c.src[i] = r.Float64()
	}
	return c
}

// unit runs one unit of reference work and records its CPU time: the
// thread's own, so a garbage collection the workload left running on
// another thread does not count, but the process's in spent, which
// timedPass subtracts from the process's CPU time.
func (c *refClock) unit() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p0 := cpuSeconds()
	// The copy and the clear bring the unit's data into the cache, so the
	// timed part does not depend on what the operation before it evicted.
	copy(c.buf, c.src)
	clear(c.m)
	t0 := threadCPUSeconds()
	sort.Float64s(c.buf)
	for _, x := range c.buf {
		c.m[int(x*1024)] += x
	}
	c.sink += c.m[7]
	c.units = append(c.units, threadCPUSeconds()-t0)
	c.total += cpuSeconds() - p0
}

// after books an operation's CPU time and runs the units it is owed. A
// nil clock does nothing, so traced passes run without units.
func (c *refClock) after(opCPU float64) {
	if c == nil {
		return
	}
	for c.owed += opCPU; c.owed >= refEvery; c.owed -= refEvery {
		c.unit()
	}
}

// spent is the process CPU time over all units run so far.
func (c *refClock) spent() float64 {
	if c == nil {
		return 0
	}
	return c.total
}

// scale converts this host's CPU seconds, as it ran during the
// measurement, to the host of record's.
func (c *refClock) scale() float64 { return refNominal / median(c.units) }
