// Large-N scaling benchmarks: the simulator's cost at cluster sizes where
// the full mesh is off the table (10⁴ processes and up). The workload
// floods along a sparse gossip overlay, so the lazy per-link state and
// the batched delivery path — not the handlers — set the bill. CI gates the
// allocations (TestSimLargeNAllocBudget); bench/ tracks the same regime as
// its flood-gossip-n10k workload.
//
// Run with: go test ./internal/sim -bench=SimLargeN -benchmem
package sim

import (
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/topo"
)

// topoFloodHandler is floodHandler restricted to a topology: each round it
// broadcasts to its overlay neighbors only, so the set of directed links
// ever touched is the overlay's edge set, not the n² mesh.
type topoFloodHandler struct {
	top    *topo.Topology
	rounds int
	got    int
}

func (h *topoFloodHandler) Init(ctx node.Context) { ctx.SetTimer("tick", 1) }

func (h *topoFloodHandler) OnTimer(ctx node.Context, name string) {
	self := ctx.Self()
	h.top.ForEachPeer(self, func(p model.ProcID) {
		ctx.Send(p, node.Payload{Tag: "flood", Subject: self})
	})
	h.rounds--
	if h.rounds > 0 {
		ctx.SetTimer("tick", 1)
	}
}

func (h *topoFloodHandler) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	h.got++
}

// runTopoFlood executes one n-process gossip flood over fanout-f overlay
// edges for the given rounds and returns the result plus the overlay.
func runTopoFlood(n, fanout, rounds int, seed int64, reg *obs.Registry) (*Result, *topo.Topology) {
	top := topo.MustNew(topo.Spec{Kind: topo.KindGossip, Fanout: fanout}, n)
	return floodOver(top, n, rounds, seed, reg), top
}

// floodOver executes one n-process flood over the overlay top for the given
// rounds.
func floodOver(top *topo.Topology, n, rounds int, seed int64, reg *obs.Registry) *Result {
	s := New(Config{N: n, Seed: seed, Metrics: reg})
	for p := 1; p <= n; p++ {
		s.SetHandler(model.ProcID(p), &topoFloodHandler{top: top, rounds: rounds})
	}
	return s.Run()
}

// BenchmarkSimLargeN10k is the large-N headline: 10,000 processes flooding
// over a fanout-8 gossip overlay for two rounds. With lazy link state the
// simulator allocates per touched link (≈ n·fanout·2 directed edges) and
// per occurrence batch — never per potential link, which at this n would
// be a hundred million channel structs before the first send. The overlay is
// built once, outside the timed loop, as bench's flood-gossip-n10k builds it
// in its setup: the loop times the runs alone.
func BenchmarkSimLargeN10k(b *testing.B) {
	const n, fanout, rounds = 10000, 8, 2
	want, top := runTopoFlood(n, fanout, rounds, 1, nil)
	if want.Stop != StopDrained {
		b.Fatalf("stop = %v", want.Stop)
	}
	if want.Sent != int(top.Links())*rounds || want.Delivered != want.Sent {
		b.Fatalf("flood sent %d delivered %d, want %d", want.Sent, want.Delivered, int(top.Links())*rounds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := floodOver(top, n, rounds, int64(i), nil); res.Stop != StopDrained {
			b.Fatalf("stop = %v", res.Stop)
		}
	}
	b.ReportMetric(float64(want.Sent)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// TestSimLargeNAllocBudget pins the scaling law behind the benchmark:
// quadrupling n at fixed fanout may grow the per-run allocation count
// roughly linearly (the overlay has 4× the links), never quadratically
// (16×). The threshold sits at 8× — halfway between the two laws — so a
// reintroduced per-pair allocation fails loudly while noise does not. Each
// size is measured out of the bulk its own warm-up run retired: 1,022 →
// 4,027 allocations (3.9×): a handler a process, the six of the overlay the
// flood builds per run and the run's own (8,023 → 32,036, 4.0×,
// while the overlay gathered each process's peers in a map of its own; 4.0×
// also when every run built its rows, arena and slab).
func TestSimLargeNAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement")
	}
	const fanout, rounds = 8, 2
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() { runTopoFlood(n, fanout, rounds, 1, nil) })
	}
	small, large := allocs(1000), allocs(4000)
	if small == 0 {
		t.Fatal("alloc measurement returned zero for the small run")
	}
	if ratio := large / small; ratio > 8 {
		t.Errorf("allocs grew %.1f× for 4× the processes (%.0f -> %.0f): super-linear in n, links are no longer lazy",
			ratio, small, large)
	}
}

// TestSimLargeNLiveLinksGauge ties the scaling law to the observability
// plane: after a gossip flood the sim_links_live gauge reads exactly the
// overlay's directed edge count — the mesh's n(n-1) channels were never
// materialized.
func TestSimLargeNLiveLinksGauge(t *testing.T) {
	const n, fanout, rounds = 2000, 8, 2
	reg := obs.NewRegistry()
	res, top := runTopoFlood(n, fanout, rounds, 1, reg)
	if res.Stop != StopDrained {
		t.Fatalf("stop = %v", res.Stop)
	}
	live := reg.Snapshot().Value("sim_links_live")
	if live != top.Links() {
		t.Errorf("sim_links_live = %d, want the overlay's %d directed links", live, top.Links())
	}
	if mesh := int64(n) * int64(n-1); live >= mesh/10 {
		t.Errorf("live links %d not sparse against the %d-link mesh", live, mesh)
	}
}
