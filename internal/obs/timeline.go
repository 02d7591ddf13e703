package obs

import (
	"sort"
	"sync"
)

// TimelinePoint is one timeseries sample.
//
//sfs:wire
type TimelinePoint struct {
	Time  int64   `json:"time"`
	Value float64 `json:"value"`
}

// TimelineSeries is one named series of a timeline snapshot. Dropped
// counts the oldest points evicted by the ring's capacity; Points holds
// the survivors in time order. Peak is the largest value the series was
// ever given, evicted points included.
//
//sfs:wire
type TimelineSeries struct {
	Name    string          `json:"name"`
	Every   int64           `json:"every"`
	Dropped int             `json:"dropped,omitempty"`
	Peak    float64         `json:"peak"`
	Points  []TimelinePoint `json:"points"`
}

// ring is a fixed-capacity point buffer that evicts its oldest entries
// but keeps the largest value it was ever given.
type ring struct {
	points  []TimelinePoint
	start   int
	n       int
	dropped int
	peak    float64
}

func (r *ring) push(p TimelinePoint) {
	if r.n == 0 || p.Value > r.peak {
		r.peak = p.Value
	}
	if r.n < len(r.points) {
		r.points[(r.start+r.n)%len(r.points)] = p
		r.n++
		return
	}
	r.points[r.start] = p
	r.start = (r.start + 1) % len(r.points)
	r.dropped++
}

func (r *ring) snapshot(name string, every int64) TimelineSeries {
	out := make([]TimelinePoint, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.points[(r.start+i)%len(r.points)]
	}
	return TimelineSeries{Name: name, Every: every, Dropped: r.dropped, Peak: r.peak, Points: out}
}

// Timeline holds ring-buffered per-tick series: the host samples each
// series at a fixed virtual-time cadence (Every) and the ring keeps the
// most recent Cap points, counting what it evicts. The zero Timeline is
// not usable; construct with NewTimeline.
type Timeline struct {
	every int64
	cap   int

	mu     sync.Mutex
	series map[string]*ring
}

// DefaultTimelineCap is the per-series ring capacity when NewTimeline is
// given a non-positive one.
const DefaultTimelineCap = 4096

// NewTimeline returns a timeline sampling every `every` virtual-time
// units (minimum 1) with per-series capacity cap (DefaultTimelineCap if
// non-positive).
func NewTimeline(every int64, capacity int) *Timeline {
	if every < 1 {
		every = 1
	}
	if capacity <= 0 {
		capacity = DefaultTimelineCap
	}
	return &Timeline{every: every, cap: capacity, series: map[string]*ring{}}
}

// Every returns the sampling cadence in virtual-time units.
func (t *Timeline) Every() int64 {
	if t == nil {
		return 0
	}
	return t.every
}

// Observe appends one sample to the named series, evicting the oldest
// point if the ring is full. A no-op on a nil timeline.
func (t *Timeline) Observe(name string, time int64, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	r, ok := t.series[name]
	if !ok {
		r = &ring{points: make([]TimelinePoint, t.cap)}
		t.series[name] = r
	}
	r.push(TimelinePoint{Time: time, Value: v})
	t.mu.Unlock()
}

// Snapshot returns every series sorted by name, points in time order. A
// nil timeline snapshots to nil.
func (t *Timeline) Snapshot() []TimelineSeries {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.series))
	for n := range t.series {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TimelineSeries, 0, len(names))
	for _, n := range names {
		out = append(out, t.series[n].snapshot(n, t.every))
	}
	return out
}
