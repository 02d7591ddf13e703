// Package obs is the unified observability plane: deterministic counters
// and gauges behind an optional Registry with stable sorted-name snapshots,
// message-lifecycle spans with causal parent IDs and seed-deterministic
// sampling, and ring-buffered per-tick timeseries. Both backends
// (internal/sim, internal/runtime), the interposer stack (internal/reliable,
// internal/netadv), and the sweep engine report through it. Distributions
// such as detection latency are not instruments: they are read from the
// recorded history once the run is over.
//
// Instruments are usable as zero values, so the layer that owns one embeds
// it directly (no per-run allocation when observability is off) and
// registers a pointer into a Registry only when one is supplied. Snapshots
// are sorted by name, so any two snapshots of the same run are
// byte-identical when rendered.
package obs

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Kind enumerates instrument kinds. Values start at 1 so the zero Kind is
// invalid and caught by validation.
type Kind int

const (
	// KindCounter is a monotonically increasing int64.
	KindCounter Kind = iota + 1
	// KindGauge is a settable int64 level.
	KindGauge
)

// kindNames is the one kind↔name table, indexed by Kind (0, the invalid
// kind, names nothing): String, MarshalText and UnmarshalText all read it.
var kindNames = [...]string{KindCounter: "counter", KindGauge: "gauge"}

// known reports whether k names a row of kindNames.
func (k Kind) known() bool { return k > 0 && int(k) < len(kindNames) }

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if !k.known() {
		return "invalid(" + strconv.Itoa(int(k)) + ")"
	}
	return kindNames[k]
}

// MarshalText encodes the kind as its name, keeping wire snapshots
// readable and stable if the enum is ever reordered.
func (k Kind) MarshalText() ([]byte, error) {
	if !k.known() {
		return nil, fmt.Errorf("obs: invalid kind %d", int(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText decodes a kind name written by MarshalText.
func (k *Kind) UnmarshalText(b []byte) error {
	i := slices.Index(kindNames[:], string(b))
	if i <= 0 {
		return fmt.Errorf("obs: unknown kind %q", b)
	}
	*k = Kind(i)
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

// Metric is one named counter or gauge reading. Metric is part of the
// facade Report and sweep wire formats.
//
//sfs:wire
type Metric struct {
	Name  string `json:"name"`
	Kind  Kind   `json:"kind"`
	Value int64  `json:"value,omitempty"`
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

// Merge combines snapshots into one name-sorted snapshot: metrics with the
// same name sum. The inputs are not modified.
func Merge(snaps ...Metrics) Metrics {
	byName := map[string]*Metric{}
	var names []string
	for _, ms := range snaps {
		for _, m := range ms {
			if prev, ok := byName[m.Name]; ok {
				prev.Value += m.Value
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

// String renders the snapshot as one "name=value" pair per line, for logs
// and debugging.
func (ms Metrics) String() string {
	var b []byte
	for _, m := range ms {
		b = append(b, m.Name...)
		b = append(b, '=')
		b = strconv.AppendInt(b, m.Value, 10)
		b = append(b, '\n')
	}
	return string(b)
}

// entry is one registered instrument: the value cell of a Counter or a
// Gauge, and which of the two it belongs to.
type entry struct {
	kind Kind
	v    *atomic.Int64
}

// Registry is a name table of counters and gauges owned elsewhere and
// registered by pointer (RegisterCounter, RegisterGauge), so the layer that
// owns an instrument embeds it as a zero-cost value and exposes it only
// when a registry is supplied. A nil *Registry is valid everywhere:
// registrations are no-ops, keeping call sites branch-free.
type Registry struct {
	mu    sync.Mutex
	items map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: map[string]entry{}}
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

func (r *Registry) register(name string, e entry) {
	if r == nil {
		return
	}
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
	r.register(name, entry{kind: KindCounter, v: &c.v})
}

// RegisterGauge exposes an externally-owned gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	r.register(name, entry{kind: KindGauge, v: &g.v})
}

// Snapshot reads every instrument and returns a name-sorted Metrics. A nil
// registry snapshots to nil.
func (r *Registry) Snapshot() Metrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.items))
	for n := range r.items {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make(Metrics, len(names))
	for i, n := range names {
		e := r.items[n]
		out[i] = Metric{Name: n, Kind: e.kind, Value: e.v.Load()}
	}
	return out
}
