//sfs:allow detwallclock the reference kernels are timed to read the host's speed; the reading scales benchmark output only

package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// The sandbox this benchmark runs in is a small VM on a shared host, and
// what it shares is the memory system: for stretches of seconds to a minute
// a neighbour's traffic slows memory-bound code to as little as a third of
// its quiet speed, while an arithmetic loop loses a tenth. Every workload
// here is memory-bound (a run allocates 0.5–25 MiB and is collected every
// few milliseconds), so raw host-time readings of identical 10-second runs
// differ by 11–30 %, and no estimator taken inside one run can fix that:
// whole runs fall into slow stretches.
//
// hostSpeed therefore reads the host's speed alongside the ops: a burst of
// two fixed reference kernels — none of the repo's code — before the first
// op and again after every refEvery of op time. One kernel allocates (a
// slice grown by append, a map, a sort: what a simulated run does to
// memory, collector included), the other reuses its buffers and chases
// pointers through 16 MiB (the memory system alone, whatever state the
// collector is in). The host's speed is the geometric mean of the two
// rates, each as a share of its quiet rate on this sandbox, raised to
// refExponent, and a host time is stated *at reference speed*: multiplied by
// the speed read around it. On a quiet host the factor is 1. Over ten
// 10-second runs with ten seeds it took the interquartile spread of runs/s
// from 11–18 % of the median to 3–4 % on every workload.
type hostSpeed struct {
	speeds        []float64 // host speed as a share of quiet, per burst
	mallocs, size uint64    // the bursts' own allocations, to take off a loop's

	calls     int // calls of each kernel per burst
	tmpl, buf []refEvent
	links     map[[2]int32]int32
	chase     []int32
	pos       int32
	sink      []refEvent
}

const (
	// The kernels' rates in calls per second on this sandbox (2-vCPU Xeon
	// 2.1 GHz) when the host is quiet. On another machine every host-time
	// metric is off by one constant factor, which no comparison between two
	// commits on that machine sees.
	quietAllocRate = 1100.0
	quietChaseRate = 750.0
	// refExponent relates the workloads' speed to the kernels': the
	// workloads are more memory-bound than the kernels (which spend part of
	// their time comparing in a sort) and lose speed faster. Over ten runs of
	// each of the six workloads, throughput divided by the kernels' speed to
	// the power 1, 1.25, 1.5, 1.75, 2 had a worst interquartile spread of
	// 7.5, 5.3, 4.1, 4.7, 8.1 % of the median.
	refExponent = 1.5
	// refCalls is the length of a burst in calls of each kernel: about
	// 35 ms in all.
	refCalls = 16
	// refEvery is how much op time may pass between two bursts.
	refEvery = 100 * time.Millisecond

	refEvents = 4096
	chaseLen  = 1 << 22
)

type refEvent struct {
	seq        int
	proc, peer int32
	time       int64
	pad        [5]int64
}

// newHostSpeed builds the kernels' fixed inputs. Under -smoke a burst is one
// call of each kernel over a small chase array: the reading is meaningless
// and costs nothing.
func newHostSpeed(smoke bool) *hostSpeed {
	chaseLen, calls := chaseLen, refCalls
	if smoke {
		chaseLen, calls = 1<<12, 1
	}
	h := &hostSpeed{
		calls: calls,
		tmpl:  make([]refEvent, refEvents),
		buf:   make([]refEvent, refEvents),
		links: map[[2]int32]int32{},
		chase: make([]int32, chaseLen),
	}
	for i := range h.tmpl {
		h.tmpl[i] = refEvent{seq: i, proc: int32(i % 10), peer: int32(i % 9), time: int64(i * 7919 % 1000)}
	}
	// One random cycle through chase, from a fixed linear-congruential
	// stream: every load misses the caches and depends on the one before.
	perm := make([]int32, chaseLen)
	for i := range perm {
		perm[i] = int32(i)
	}
	x := uint64(12345)
	for i := chaseLen - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		h.chase[p] = perm[(i+1)%chaseLen]
	}
	return h
}

// allocKernel is what a simulated run does to memory, with none of its
// logic: a history grown by append, a small map hit on every event, a sort.
func (h *hostSpeed) allocKernel() {
	evs := make([]refEvent, 0, 64)
	links := map[[2]int32]int32{}
	for i := 0; i < refEvents; i++ {
		evs = append(evs, h.tmpl[i])
		links[[2]int32{int32(i % 10), int32(i % 9)}]++
	}
	sort.Slice(evs, func(a, b int) bool { return evs[a].time < evs[b].time })
	h.sink = evs
}

// chaseKernel does the same to buffers it keeps, then follows refEvents
// dependent loads through chase.
func (h *hostSpeed) chaseKernel() {
	copy(h.buf, h.tmpl)
	for i := range h.buf {
		h.links[[2]int32{int32(i % 10), int32(i % 9)}]++
	}
	sort.Slice(h.buf, func(a, b int) bool { return h.buf[a].time < h.buf[b].time })
	p := h.pos
	for i := 0; i < refEvents; i++ {
		p = h.chase[p]
	}
	h.pos = p
}

// burst runs each kernel calls times and records the host's speed.
func (h *hostSpeed) burst() {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rate := func(kernel func()) float64 {
		t0 := time.Now()
		for i := 0; i < h.calls; i++ {
			kernel()
		}
		return float64(h.calls) / time.Since(t0).Seconds()
	}
	alloc, chase := rate(h.allocKernel), rate(h.chaseKernel)
	h.speeds = append(h.speeds, math.Pow(alloc/quietAllocRate*chase/quietChaseRate, refExponent/2))
	runtime.ReadMemStats(&m1)
	h.mallocs += m1.Mallocs - m0.Mallocs
	h.size += m1.TotalAlloc - m0.TotalAlloc
}

// between returns the host's speed for work done after burst number b-1 and
// before burst number b: the mean of the two readings.
func (h *hostSpeed) between(b int) float64 { return (h.speeds[b-1] + h.speeds[b]) / 2 }
