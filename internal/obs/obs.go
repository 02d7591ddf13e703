// Package obs is the unified observability plane: deterministic typed
// instruments (counters, gauges, histograms) behind an optional Registry
// with stable sorted-name snapshots, message-lifecycle spans with causal
// parent IDs and seed-deterministic sampling, and ring-buffered per-tick
// timeseries. Both backends (internal/sim, internal/runtime), the
// interposer stack (internal/reliable, internal/netadv), and the sweep
// engine report through it.
//
// Instruments are usable as zero values, so hosts embed them directly
// (no per-run allocation when observability is off) and register pointers
// into a Registry only when one is supplied. Snapshots are sorted by name,
// so any two snapshots of the same run are byte-identical when rendered.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"failstop/internal/stats"
)

// Kind enumerates instrument kinds. Values start at 1 so the zero Kind is
// invalid and caught by validation.
type Kind int

const (
	// KindCounter is a monotonically increasing int64.
	KindCounter Kind = iota + 1
	// KindGauge is a settable int64 level.
	KindGauge
	// KindHistogram is a sample set summarized at snapshot time.
	KindHistogram
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "invalid(" + strconv.Itoa(int(k)) + ")"
	}
}

// MarshalText encodes the kind as its name, keeping wire snapshots
// readable and stable if the enum is ever reordered.
func (k Kind) MarshalText() ([]byte, error) {
	switch k {
	case KindCounter, KindGauge, KindHistogram:
		return []byte(k.String()), nil
	default:
		return nil, fmt.Errorf("obs: invalid kind %d", int(k))
	}
}

// UnmarshalText decodes a kind name written by MarshalText.
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("obs: unknown kind %q", b)
	}
	return nil
}

// Counter is a monotonically increasing instrument. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be non-negative; this is not checked on the hot path).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable level instrument. The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram collects float64 samples and summarizes them at snapshot time.
// The zero value is ready to use.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.mu.Unlock()
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Summary computes the statistical summary of the samples so far.
func (h *Histogram) Summary() stats.Summary {
	h.mu.Lock()
	xs := make([]float64, len(h.samples))
	copy(xs, h.samples)
	h.mu.Unlock()
	return stats.Summarize(xs)
}

// Metric is one named instrument reading. Counters and gauges carry Value;
// histograms carry Summary. Metric is part of the facade Report and sweep
// wire formats.
//
//sfs:wire
type Metric struct {
	Name    string         `json:"name"`
	Kind    Kind           `json:"kind"`
	Value   int64          `json:"value,omitempty"`
	Summary *stats.Summary `json:"summary,omitempty"`
}

// Metrics is a snapshot: a name-sorted list of metric readings.
type Metrics []Metric

// Get returns the metric with the given name, if present.
func (ms Metrics) Get(name string) (Metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Value returns the value of the named counter or gauge, or 0 if absent.
func (ms Metrics) Value(name string) int64 {
	m, _ := ms.Get(name)
	return m.Value
}

// Merge combines snapshots into one name-sorted snapshot: counters and
// gauges with the same name sum; for histograms the first summary seen for
// a name wins. The inputs are not modified.
func Merge(snaps ...Metrics) Metrics {
	byName := map[string]*Metric{}
	var names []string
	for _, ms := range snaps {
		for _, m := range ms {
			if prev, ok := byName[m.Name]; ok {
				prev.Value += m.Value
				if prev.Summary == nil {
					prev.Summary = m.Summary
				}
				continue
			}
			cp := m
			byName[m.Name] = &cp
			names = append(names, m.Name)
		}
	}
	sort.Strings(names)
	out := make(Metrics, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	return out
}

// String renders the snapshot as one "name=value" (or "name=~mean/n" for
// histograms) pair per line, for logs and debugging.
func (ms Metrics) String() string {
	var b []byte
	for _, m := range ms {
		b = append(b, m.Name...)
		b = append(b, '=')
		if m.Kind == KindHistogram && m.Summary != nil {
			b = append(b, fmt.Sprintf("~%.2f/%d", m.Summary.Mean, m.Summary.N)...)
		} else {
			b = strconv.AppendInt(b, m.Value, 10)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// entry is one registered instrument; exactly one of c/g/h is non-nil,
// matching kind.
type entry struct {
	kind Kind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named instruments. Instruments are either created by the
// registry (Counter/Gauge/Histogram get-or-create) or owned elsewhere and
// registered by pointer (RegisterCounter and friends), so hosts can embed
// zero-cost value instruments and expose them only when a registry is
// supplied. A nil *Registry is valid everywhere: lookups return fresh
// unregistered instruments and registrations are no-ops, keeping call
// sites branch-free.
type Registry struct {
	mu    sync.Mutex
	items map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: map[string]*entry{}}
}

// checkName panics unless name is lowercase snake_case: metric names are
// authored constants, so a bad one is a programming error.
func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			panic(fmt.Sprintf("obs: invalid metric name %q (want lowercase snake_case)", name))
		}
	}
}

func (r *Registry) get(name string, kind Kind) *entry {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.items[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, kind))
		}
		return e
	}
	e := &entry{kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindGauge:
		e.g = &Gauge{}
	case KindHistogram:
		e.h = &Histogram{}
	default:
		panic(fmt.Sprintf("obs: invalid kind %d", int(kind)))
	}
	r.items[name] = e
	return e
}

// Counter returns the named counter, creating it if absent. Panics if the
// name is held by another kind. On a nil registry it returns a fresh
// unregistered counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.get(name, KindCounter).c
}

// Gauge returns the named gauge, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.get(name, KindGauge).g
}

// Histogram returns the named histogram, creating it if absent.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	return r.get(name, KindHistogram).h
}

func (r *Registry) register(name string, e *entry) {
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.items[name]; ok {
		panic(fmt.Sprintf("obs: duplicate registration of metric %q", name))
	}
	r.items[name] = e
}

// RegisterCounter exposes an externally-owned counter under name. Panics
// on a duplicate name; a no-op on a nil registry.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil {
		return
	}
	r.register(name, &entry{kind: KindCounter, c: c})
}

// RegisterGauge exposes an externally-owned gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	if r == nil {
		return
	}
	r.register(name, &entry{kind: KindGauge, g: g})
}

// Snapshot reads every instrument and returns a name-sorted Metrics. A nil
// registry snapshots to nil.
func (r *Registry) Snapshot() Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.items))
	entries := make([]*entry, 0, len(r.items))
	for n := range r.items {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		entries = append(entries, r.items[n])
	}
	r.mu.Unlock()

	out := make(Metrics, 0, len(names))
	for i, e := range entries {
		m := Metric{Name: names[i], Kind: e.kind}
		switch e.kind {
		case KindCounter:
			m.Value = e.c.Value()
		case KindGauge:
			m.Value = e.g.Value()
		case KindHistogram:
			s := e.h.Summary()
			m.Summary = &s
		default:
			// unreachable: get/register only admit valid kinds
		}
		out = append(out, m)
	}
	return out
}
