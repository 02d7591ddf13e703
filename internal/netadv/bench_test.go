package netadv

import (
	"reflect"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
)

// BenchmarkDecideQuiet measures the fast path: no rule active or matching.
func BenchmarkDecideQuiet(b *testing.B) {
	pl := NewPlane(Plan{Rules: []Rule{
		{From: 1 << 40, Cut: true}, // never active within the benchmark
	}}, 10, 1)
	p := node.Payload{Tag: "APP"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Decide(1, 2, p, int64(i))
	}
}

// BenchmarkDecideFaulty measures the full decision path with a
// probabilistic multi-rule plan.
func BenchmarkDecideFaulty(b *testing.B) {
	pl := NewPlane(Plan{Rules: []Rule{
		{Drop: 0.1, JitterMax: 5},
		{Duplicate: 0.05, Reorder: 0.02},
	}}, 10, 1)
	p := node.Payload{Tag: "APP"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Decide(1, 2, p, int64(i))
	}
}

// BenchmarkDecideByzQuiet prices the tax Byzantine rules levy on traffic
// they never touch: the plan carries a corruptor and an equivocator, but
// the benchmark's frames miss every selector.
func BenchmarkDecideByzQuiet(b *testing.B) {
	pl := NewPlane(Plan{Byz: []ByzRule{
		{Victim: 5, Tags: []string{"SUSP"}, Corrupt: 1},
		{Victim: 4, Tags: []string{"SUSP"}, Equivocate: [][]model.ProcID{{1, 2}, {3, 6}}},
	}}, 10, 1)
	p := node.Payload{Tag: "APP"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Decide(1, 2, p, int64(i))
	}
}

// BenchmarkDecideByzFaulty measures the mutation path itself: every frame
// is the victim's, matches the rule, and gets corrupted and replayed.
func BenchmarkDecideByzFaulty(b *testing.B) {
	pl := NewPlane(Plan{Byz: []ByzRule{
		{Victim: 5, Corrupt: 1, Replay: 0.2, ReplayDelay: 50},
	}}, 10, 1)
	p := node.Payload{Tag: "SUSP", Subject: 3, Data: []byte(`{"suspect":3}`)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Decide(5, 2, p, int64(i))
	}
}

// TestByzDecideAllocBudget is the CI gate on that tax: a plan
// that carries Byzantine rules may add at most 5% allocations to the
// decision path of traffic those rules never match — the fault plane's
// fast path must not pay for a feature the frame doesn't use.
func TestByzDecideAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const frames = 200
	run := func(pl *Plane) func() {
		p := node.Payload{Tag: "APP"}
		return func() {
			for i := 0; i < frames; i++ {
				pl.Decide(1, 2, p, int64(i))
			}
		}
	}
	bare := NewPlane(Plan{Rules: []Rule{{From: 1 << 40, Cut: true}}}, 10, 1)
	withByz := NewPlane(Plan{
		Rules: []Rule{{From: 1 << 40, Cut: true}},
		Byz: []ByzRule{
			{Victim: 5, Tags: []string{"SUSP"}, Corrupt: 1},
			{Victim: 4, Tags: []string{"SUSP"}, Equivocate: [][]model.ProcID{{1, 2}, {3, 6}}},
		},
	}, 10, 1)
	base := testing.AllocsPerRun(20, run(bare))
	got := testing.AllocsPerRun(20, run(withByz))
	if got > base*1.05+1 {
		t.Errorf("byz-rule plan allocates %.0f/run on unmatched traffic, bare plan %.0f/run: over the 5%% budget", got, base)
	}
}

// TestPlaneMetricsMatchRegistry: a plane reports the same counters, in name
// order, through Metrics as through a registry it registered into, the
// plane_byz_* three only for a plan with Byz rules; and a Metrics call
// allocates once, for the slice it returns.
func TestPlaneMetricsMatchRegistry(t *testing.T) {
	for _, tc := range []struct {
		plan Plan
		want int
	}{
		{Plan{Rules: []Rule{{Cut: true}}}, 6},
		{Plan{Byz: []ByzRule{{Victim: 1, Tags: []string{"APP"}, Corrupt: 1}}}, 9},
	} {
		pl := NewPlane(tc.plan, 10, 1)
		pl.Decide(1, 2, node.Payload{Tag: "APP"}, 0)
		reg := obs.NewRegistry()
		pl.Register(reg)
		got := pl.Metrics()
		if len(got) != tc.want || !reflect.DeepEqual(got, reg.Snapshot()) {
			t.Errorf("Metrics() = %v, registry snapshot %v; want %d counters in both", got, reg.Snapshot(), tc.want)
		}
		if got.Value("plane_decided_total") != 1 {
			t.Errorf("plane_decided_total = %d after one decision", got.Value("plane_decided_total"))
		}
		if allocs := testing.AllocsPerRun(20, func() { pl.Metrics() }); allocs > 1 {
			t.Errorf("Metrics() allocates %.0f times, want 1", allocs)
		}
	}
}
