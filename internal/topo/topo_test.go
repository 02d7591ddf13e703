package topo

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"failstop/internal/model"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"full", "full"},
		{"", "full"},
		{"gossip:8", "gossip:8"},
		{"gossip:3@42", "gossip:3@42"},
		{"hier:4x8", "hier:4x8"},
		{" hier:2x2 ", "hier:2x2"},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.in, err)
		}
		if got := sp.Name(); got != c.want {
			t.Errorf("ParseSpec(%q).Name() = %q, want %q", c.in, got, c.want)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("ParseSpec(%q).Validate(): %v", c.in, err)
		}
	}
	for _, bad := range []string{"ring", "gossip", "gossip:0", "gossip:x", "hier:4", "hier:0x2", "hier:axb"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
}

// TestFullMesh: a complete-graph spec, the zero Spec or Kind "full",
// resolves to nil, the one representation of the complete graph — after
// the same n and spec checks every other kind gets.
func TestFullMesh(t *testing.T) {
	for _, sp := range []Spec{{}, {Kind: KindFull}} {
		if tp, err := New(sp, 6); tp != nil || err != nil {
			t.Errorf("New(%+v, 6) = %v, %v; want nil, nil", sp, tp, err)
		}
		if tp := MustNew(sp, 6); tp != nil {
			t.Errorf("MustNew(%+v, 6) = %v, want nil", sp, tp)
		}
		if _, err := New(sp, 0); err == nil {
			t.Errorf("New(%+v, 0): want error", sp)
		}
	}
}

// collectPeers collects p's neighborhood through ForEachPeer.
func collectPeers(tp *Topology, p model.ProcID) []model.ProcID {
	var out []model.ProcID
	tp.ForEachPeer(p, func(q model.ProcID) { out = append(out, q) })
	return out
}

// TestGossipDeterministicSymmetricSorted pins the gossip sampler's three
// contracts: identical adjacency for identical (spec, n), symmetry, and
// ascending per-process peer lists with no self-loops or duplicates.
func TestGossipDeterministicSymmetricSorted(t *testing.T) {
	const n, fanout = 200, 4
	sp := Spec{Kind: KindGossip, Fanout: fanout, Seed: 7}
	a := MustNew(sp, n)
	b := MustNew(sp, n)
	for p := model.ProcID(1); int(p) <= n; p++ {
		pa, pb := collectPeers(a, p), collectPeers(b, p)
		if len(pa) != len(pb) {
			t.Fatalf("proc %d: degree %d vs %d across identical builds", p, len(pa), len(pb))
		}
		if len(pa) < fanout {
			t.Errorf("proc %d: degree %d below fanout %d", p, len(pa), fanout)
		}
		for i, q := range pa {
			if q != pb[i] {
				t.Fatalf("proc %d: adjacency differs across identical builds", p)
			}
			if q == p {
				t.Errorf("proc %d: self-loop", p)
			}
			if i > 0 && pa[i-1] >= q {
				t.Errorf("proc %d: peers not strictly ascending: %v", p, pa)
			}
			if !a.Contains(q, p) {
				t.Errorf("edge %d->%d not symmetric", p, q)
			}
		}
	}
	if other := MustNew(Spec{Kind: KindGossip, Fanout: fanout, Seed: 8}, n); sameAdjacency(a, other, n) {
		t.Error("different seeds produced identical adjacency")
	}
}

// TestGossipAdjacencyPinned holds one large overlay — n = 10,000, fanout 8,
// seed 1, the flood-gossip-n10k benchmark's — to a hash of its adjacency
// taken while each process's peers were gathered in a map of their own: for
// each process in id order, its degree and then its peers, each a
// little-endian uint32, through FNV-64a.
func TestGossipAdjacencyPinned(t *testing.T) {
	const n = 10_000
	top := MustNew(Spec{Kind: KindGossip, Fanout: 8, Seed: 1}, n)
	h, buf := fnv.New64a(), []byte(nil)
	for p := model.ProcID(1); int(p) <= n; p++ {
		peers := collectPeers(top, p)
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(peers)))
		for _, q := range peers {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(q))
		}
		h.Write(buf)
	}
	if got, want := h.Sum64(), uint64(0xc568b6c6093b8aa3); got != want {
		t.Errorf("adjacency hash %#x, want %#x", got, want)
	}
	if got, want := top.Links(), int64(159_940); got != want {
		t.Errorf("Links() = %d, want %d", got, want)
	}
}

func sameAdjacency(a, b *Topology, n int) bool {
	for p := model.ProcID(1); int(p) <= n; p++ {
		pa, pb := collectPeers(a, p), collectPeers(b, p)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
	}
	return true
}

// TestHierNeighborhoods pins the hierarchy graph on a hand-checkable
// shape: 12 processes over 2 regions × 2 racks (rack size 3).
//
//	rack 0: 1 2 3   rack 1: 4 5 6    (region 0, leader 1; rack leaders 1, 4)
//	rack 2: 7 8 9   rack 3: 10 11 12 (region 1, leader 7; rack leaders 7, 10)
func TestHierNeighborhoods(t *testing.T) {
	tp := MustNew(Spec{Kind: KindHier, Regions: 2, Racks: 2}, 12)
	want := map[model.ProcID][]model.ProcID{
		2:  {1, 3},        // plain rack member
		1:  {2, 3, 4, 7},  // rack leader + region leader
		4:  {1, 5, 6},     // rack leader only
		7:  {1, 8, 9, 10}, // region 1's leader
		10: {7, 11, 12},   // rack leader in region 1
		12: {10, 11},      // plain member of the last rack
	}
	for p, peers := range want {
		got := collectPeers(tp, p)
		if len(got) != len(peers) {
			t.Fatalf("peers of %d = %v, want %v", p, got, peers)
		}
		for i := range got {
			if got[i] != peers[i] {
				t.Fatalf("peers of %d = %v, want %v", p, got, peers)
			}
		}
		if tp.Degree(p) != len(peers) {
			t.Errorf("Degree(%d) = %d, want %d", p, tp.Degree(p), len(peers))
		}
	}
	if r := tp.RegionOf(5); r != 0 {
		t.Errorf("RegionOf(5) = %d, want 0", r)
	}
	if r := tp.RegionOf(9); r != 1 {
		t.Errorf("RegionOf(9) = %d, want 1", r)
	}
	if g := tp.RackOf(11); g != 3 {
		t.Errorf("RackOf(11) = %d, want 3", g)
	}
	if tp.Regions() != 2 || tp.NumRacks() != 4 {
		t.Errorf("Regions=%d NumRacks=%d, want 2 and 4", tp.Regions(), tp.NumRacks())
	}
	// Symmetry: Contains must agree in both directions everywhere.
	for p := model.ProcID(1); p <= 12; p++ {
		for q := model.ProcID(1); q <= 12; q++ {
			if tp.Contains(p, q) != tp.Contains(q, p) {
				t.Errorf("Contains(%d,%d) asymmetric", p, q)
			}
		}
	}
}

func TestNewRejectsMisfits(t *testing.T) {
	if _, err := New(Spec{Kind: KindGossip, Fanout: 5}, 5); err == nil {
		t.Error("gossip fanout 5 over 5 processes: want error")
	}
	if _, err := New(Spec{Kind: KindHier, Regions: 4, Racks: 4}, 9); err == nil {
		t.Error("hier 4x4 over 9 processes: want error")
	}
	if _, err := New(Spec{Kind: "ring"}, 5); err == nil {
		t.Error("unknown kind: want error")
	}
	if _, err := New(Spec{}, 0); err == nil {
		t.Error("n=0: want error")
	}
}

// TestForEachPeerAllocFree pins the virtual hierarchy's memory contract:
// a neighborhood walk must not allocate per call.
func TestForEachPeerAllocFree(t *testing.T) {
	hier := MustNew(Spec{Kind: KindHier, Regions: 4, Racks: 5}, 1000)
	sink := 0
	fn := func(q model.ProcID) { sink += int(q) }
	if allocs := testing.AllocsPerRun(10, func() { hier.ForEachPeer(500, fn) }); allocs > 0 {
		t.Errorf("ForEachPeer allocates %.0f/call, want 0", allocs)
	}
	_ = sink
}
