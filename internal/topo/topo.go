// Package topo defines communication topologies: which processes each
// process broadcasts to, and — under the partial-quorum reading of the §5
// protocol — whose SUSP testimony counts toward its quorums.
//
// The paper's construction assumes a complete graph: every process can
// send "j failed" to every other process, and a quorum is more than
// n(t-1)/t of all n processes. That reading caps a materialized simulation
// at N in the low hundreds: state, broadcast fan-out, and quorum counting
// are all Θ(N) per process, Θ(N²) per run. The quorum-family results the
// construction actually rests on (Theorem 7, and the Imbs–Raynal–Stainer
// reduction this repo implements in internal/byz) need only that any two
// quorums a process completes intersect in a correct process — a property
// of the membership pool, not of global connectivity. A Topology makes the
// pool explicit: each process runs the identical §5 protocol over its
// neighborhood, completing quorums of more than m(t-1)/t of its m pool
// members (internal/quorum.Pool).
//
// Three graph kinds:
//
//   - Full: the paper's complete graph. The zero Spec. New resolves it to
//     a nil *Topology, the one representation of the complete graph in
//     every layer: hosts keep their all-pairs paths and nothing is
//     materialized at any N.
//   - Gossip: every process samples Fanout distinct peers with a
//     seed-deterministic splitmix64 stream, and the sampled edges are
//     symmetrized (if p samples q, q also neighbors p). Expected degree is
//     just under 2·Fanout. Adjacency is materialized once per topology:
//     O(N·Fanout) memory.
//   - Hier: a rack/region hierarchy. Processes fill racks contiguously,
//     Racks racks per region, Regions regions. Every process neighbors its
//     whole rack; the lowest process of each rack (the rack leader)
//     additionally neighbors its region's other rack leaders, and the
//     lowest process of each region (the region leader) neighbors the
//     other region leaders. Neighborhoods are computed arithmetically —
//     O(1) memory at any N — which is what makes correlated region-cut
//     fault plans (netadv LinkSet.Regions/Racks) cheap to target.
//
// Determinism: a Topology is a pure function of (Spec, N). Gossip sampling
// reuses the module's splitmix64 mixer, so adjacency never depends on map
// iteration order or on the host's RNG stream.
package topo

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"failstop/internal/model"
)

// Kind names for Spec.Kind. A Spec with an empty Kind is the full mesh.
const (
	KindFull   = "full"
	KindGossip = "gossip"
	KindHier   = "hier"
)

// Spec is the declarative, wire-stable description of a topology. It is
// what plan files, sweep axes, and the -topo CLI flags carry; New resolves
// it against a concrete N.
//
//sfs:wire
type Spec struct {
	// Kind is KindFull (or ""), KindGossip, or KindHier.
	Kind string `json:"kind,omitempty"`
	// Fanout is the per-process sample count for gossip graphs. Ignored by
	// the other kinds.
	Fanout int `json:"fanout,omitempty"`
	// Seed seeds gossip peer sampling. Two gossip topologies with equal
	// (Seed, Fanout, N) have identical adjacency; 0 is a valid seed.
	Seed int64 `json:"seed,omitempty"`
	// Regions and Racks shape hierarchy graphs: Regions regions of Racks
	// racks each. Ignored by the other kinds.
	Regions int `json:"regions,omitempty"`
	Racks   int `json:"racks,omitempty"`
}

// IsFull reports whether the spec names the complete graph (the zero Spec
// does).
func (sp Spec) IsFull() bool { return sp.Kind == "" || sp.Kind == KindFull }

// Name renders the spec compactly — "full", "gossip:8", "hier:4x8" — the
// same grammar ParseSpec accepts. It is the sweep report's topology column.
func (sp Spec) Name() string {
	switch sp.Kind {
	case "", KindFull:
		return KindFull
	case KindGossip:
		name := KindGossip + ":" + strconv.Itoa(sp.Fanout)
		if sp.Seed != 0 {
			name += "@" + strconv.FormatInt(sp.Seed, 10)
		}
		return name
	case KindHier:
		return KindHier + ":" + strconv.Itoa(sp.Regions) + "x" + strconv.Itoa(sp.Racks)
	default:
		return sp.Kind
	}
}

// Validate reports the first problem with the spec, or nil.
func (sp Spec) Validate() error {
	switch sp.Kind {
	case "", KindFull:
		return nil
	case KindGossip:
		if sp.Fanout < 1 {
			return fmt.Errorf("topo: gossip needs Fanout >= 1, got %d", sp.Fanout)
		}
		return nil
	case KindHier:
		if sp.Regions < 1 || sp.Racks < 1 {
			return fmt.Errorf("topo: hier needs Regions >= 1 and Racks >= 1, got %dx%d", sp.Regions, sp.Racks)
		}
		return nil
	default:
		return fmt.Errorf("topo: unknown kind %q (want %s, %s, or %s)", sp.Kind, KindFull, KindGossip, KindHier)
	}
}

// ParseSpec parses the CLI grammar: "full", "gossip:F", "gossip:F@SEED",
// or "hier:RxK" (R regions of K racks).
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	kind, arg, _ := strings.Cut(s, ":")
	switch strings.ToLower(kind) {
	case "", KindFull:
		return Spec{}, nil
	case KindGossip:
		fan, seedStr, hasSeed := strings.Cut(arg, "@")
		f, err := strconv.Atoi(strings.TrimSpace(fan))
		if err != nil || f < 1 {
			return Spec{}, fmt.Errorf("topo: bad gossip fanout in %q (want gossip:F, F >= 1)", s)
		}
		sp := Spec{Kind: KindGossip, Fanout: f}
		if hasSeed {
			seed, err := strconv.ParseInt(strings.TrimSpace(seedStr), 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("topo: bad gossip seed in %q", s)
			}
			sp.Seed = seed
		}
		return sp, nil
	case KindHier:
		r, k, ok := strings.Cut(arg, "x")
		if !ok {
			return Spec{}, fmt.Errorf("topo: bad hier shape in %q (want hier:RxK)", s)
		}
		ri, err1 := strconv.Atoi(strings.TrimSpace(r))
		ki, err2 := strconv.Atoi(strings.TrimSpace(k))
		if err1 != nil || err2 != nil || ri < 1 || ki < 1 {
			return Spec{}, fmt.Errorf("topo: bad hier shape in %q (want hier:RxK, R and K >= 1)", s)
		}
		return Spec{Kind: KindHier, Regions: ri, Racks: ki}, nil
	default:
		return Spec{}, fmt.Errorf("topo: unknown topology %q (want full, gossip:F, or hier:RxK)", s)
	}
}

// Topology is a partial Spec resolved against a concrete N: the undirected
// communication graph the protocol stack broadcasts over. The complete
// graph is the nil *Topology.
type Topology struct {
	spec Spec
	n    int

	// The materialized adjacency of a gossip graph: process p's peers,
	// ascending, are peers[off[p]:off[p+1]]. nil for a hierarchy.
	off   []int
	peers []model.ProcID

	// Hierarchy geometry: processes fill racks of rackSize contiguously;
	// global rack g spans [1 + g·rackSize, min(n, (g+1)·rackSize)].
	rackSize int
	numRacks int
}

// New resolves spec against n processes. It returns an error for an
// invalid spec or one that cannot shape n processes, and nil, nil for the
// complete graph (the zero Spec or Kind "full"): nil is the complete graph.
func New(sp Spec, n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: need n >= 1, got %d", n)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if sp.IsFull() {
		return nil, nil
	}
	t := &Topology{spec: sp, n: n}
	switch sp.Kind {
	case KindGossip:
		if sp.Fanout > n-1 {
			return nil, fmt.Errorf("topo: gossip fanout %d needs at least %d processes, have %d", sp.Fanout, sp.Fanout+1, n)
		}
		t.off, t.peers = sampleGossip(n, sp.Fanout, sp.Seed)
	case KindHier:
		racks := sp.Regions * sp.Racks
		if racks > n {
			return nil, fmt.Errorf("topo: hier %dx%d needs at least %d processes, have %d", sp.Regions, sp.Racks, racks, n)
		}
		t.numRacks = racks
		t.rackSize = (n + racks - 1) / racks
		// Ceil division can strand trailing racks empty (e.g. n=10 over 4
		// racks of 3 fills racks 0..3 with 3,3,3,1); recompute the true
		// rack count so every rack is non-empty.
		t.numRacks = (n + t.rackSize - 1) / t.rackSize
		if t.numRacks < racks {
			return nil, fmt.Errorf("topo: hier %dx%d cannot shape %d processes evenly enough (want n >= %d or fewer racks)", sp.Regions, sp.Racks, n, racks)
		}
	}
	return t, nil
}

// MustNew is New for authored specs; it panics on error, and returns nil
// for the complete graph as New does.
func MustNew(sp Spec, n int) *Topology {
	t, err := New(sp, n)
	if err != nil {
		panic(err)
	}
	return t
}

// Degree returns the number of neighbors of p.
func (t *Topology) Degree(p model.ProcID) int {
	if t.spec.Kind == KindGossip {
		return len(t.peersOf(p))
	}
	d := 0
	t.forEachHierPeer(p, func(model.ProcID) { d++ })
	return d
}

// Links returns the number of directed links in the graph: the footprint a
// fully-exercised fault plane or reliable layer would lazily materialize.
func (t *Topology) Links() int64 {
	if t.spec.Kind == KindGossip {
		return int64(len(t.peers))
	}
	var sum int64
	for p := 1; p <= t.n; p++ {
		sum += int64(t.Degree(model.ProcID(p)))
	}
	return sum
}

// ForEachPeer calls fn for every neighbor of p, in ascending id order. It
// allocates nothing for a hierarchy, so broadcast paths can iterate a
// million-process neighborhood without materializing it.
func (t *Topology) ForEachPeer(p model.ProcID, fn func(q model.ProcID)) {
	if t.spec.Kind != KindGossip {
		t.forEachHierPeer(p, fn)
		return
	}
	for _, q := range t.peersOf(p) {
		fn(q)
	}
}

// Contains reports whether q is a neighbor of p. The graph is undirected:
// Contains(p, q) == Contains(q, p).
func (t *Topology) Contains(p, q model.ProcID) bool {
	switch {
	case p == q:
		return false
	case t.spec.Kind == KindGossip:
		_, ok := slices.BinarySearch(t.peersOf(p), q)
		return ok
	case t.rackOf(p) == t.rackOf(q):
		return true
	case t.isRackLeader(p) && t.isRackLeader(q) && t.RegionOf(p) == t.RegionOf(q):
		return true
	}
	return t.isRegionLeader(p) && t.isRegionLeader(q)
}

// RegionOf returns p's region index (0-based) in a hierarchy, or -1 for
// the other kinds.
func (t *Topology) RegionOf(p model.ProcID) int {
	if t.spec.Kind != KindHier {
		return -1
	}
	return t.rackOf(p) / t.spec.Racks
}

// RackOf returns p's global rack index (0-based) in a hierarchy, or -1 for
// the other kinds.
func (t *Topology) RackOf(p model.ProcID) int {
	if t.spec.Kind != KindHier {
		return -1
	}
	return t.rackOf(p)
}

// Regions returns the number of regions (0 for non-hierarchies).
func (t *Topology) Regions() int {
	if t.spec.Kind != KindHier {
		return 0
	}
	return (t.numRacks + t.spec.Racks - 1) / t.spec.Racks
}

// NumRacks returns the number of global racks (0 for non-hierarchies).
func (t *Topology) NumRacks() int { return t.numRacks }

func (t *Topology) rackOf(p model.ProcID) int { return (int(p) - 1) / t.rackSize }

// rackBounds returns the inclusive process-id range of global rack g.
func (t *Topology) rackBounds(g int) (lo, hi model.ProcID) {
	lo = model.ProcID(1 + g*t.rackSize)
	hi = model.ProcID((g + 1) * t.rackSize)
	if int(hi) > t.n {
		hi = model.ProcID(t.n)
	}
	return lo, hi
}

// isRackLeader reports whether p is the lowest id of its rack.
func (t *Topology) isRackLeader(p model.ProcID) bool {
	return (int(p)-1)%t.rackSize == 0
}

// isRegionLeader reports whether p is the lowest id of its region: the
// leader of its region's first rack.
func (t *Topology) isRegionLeader(p model.ProcID) bool {
	return t.isRackLeader(p) && t.rackOf(p)%t.spec.Racks == 0
}

// forEachHierPeer walks p's hierarchy neighborhood in ascending id order:
// rack-mates always; sibling rack leaders for a rack leader; the other
// region leaders for a region leader. The three peer classes are disjoint
// id ranges interleaved by a three-way merge on the next candidate.
func (t *Topology) forEachHierPeer(p model.ProcID, fn func(q model.ProcID)) {
	rack := t.rackOf(p)
	lo, hi := t.rackBounds(rack)
	leader := t.isRackLeader(p)
	regionLeader := t.isRegionLeader(p)
	region := rack / t.spec.Racks

	// Rack-leader peers of a rack leader: leaders of the region's other
	// racks. Region-leader peers of a region leader: leaders of the other
	// regions. Both sets are sparse and strictly outside p's own rack, and
	// every rack-leader id in p's region precedes or follows p's whole rack
	// contiguously — so emitting "leaders below the rack, rack-mates,
	// leaders above the rack" preserves ascending order.
	emitLeaders := func(before bool) {
		if leader {
			first, last := region*t.spec.Racks, (region+1)*t.spec.Racks-1
			if last >= t.numRacks {
				last = t.numRacks - 1
			}
			for g := first; g <= last; g++ {
				if g == rack {
					continue
				}
				q, _ := t.rackBounds(g)
				if (q < lo) == before {
					fn(q)
				}
			}
		}
		if regionLeader {
			for r := 0; r*t.spec.Racks < t.numRacks; r++ {
				if r == region {
					continue
				}
				q, _ := t.rackBounds(r * t.spec.Racks)
				if (q < lo) == before {
					fn(q)
				}
			}
		}
	}
	emitLeaders(true)
	for q := lo; q <= hi; q++ {
		if q != p {
			fn(q)
		}
	}
	emitLeaders(false)
}

// peersOf returns gossip process p's peers, capped so that an append to
// them cannot reach the next process's.
func (t *Topology) peersOf(p model.ProcID) []model.ProcID {
	lo, hi := t.off[p], t.off[p+1]
	return t.peers[lo:hi:hi]
}

// sampleGossip draws each process's Fanout distinct peers from a
// splitmix64 stream over (seed, p, attempt) and symmetrizes the result.
// Sampling is rejection-based with a deterministic attempt counter, so the
// adjacency is a pure function of (seed, fanout, n). Every draw adds both
// directions of its edge to one list of (from, to) pairs, which one sort
// orders by process and then by peer and one compaction rids of the edges
// two processes drew of each other; process p's peers are then
// peers[off[p]:off[p+1]].
func sampleGossip(n, fanout int, seed int64) (off []int, peers []model.ProcID) {
	edges := make([]uint64, 0, 2*n*fanout)
	// Each process draws fanout distinct peers of its own; edges inherited
	// from earlier processes' draws (symmetrization) do not count toward
	// the quota, or a dense neighborhood could demand more fresh peers than
	// exist and the rejection loop would never finish.
	drawn, isDrawn := make([]model.ProcID, 0, fanout), make([]bool, n+1)
	for p := model.ProcID(1); int(p) <= n; p++ {
		for attempt := uint64(0); len(drawn) < fanout; attempt++ {
			q := model.ProcID(1 + gossipDraw(seed, int(p), attempt)%uint64(n))
			if q == p || isDrawn[q] {
				continue
			}
			isDrawn[q] = true
			drawn = append(drawn, q)
			edges = append(edges, uint64(p)<<32|uint64(q), uint64(q)<<32|uint64(p))
		}
		for _, q := range drawn {
			isDrawn[q] = false
		}
		drawn = drawn[:0]
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	off, peers = make([]int, n+2), make([]model.ProcID, len(edges))
	for i, e := range edges {
		peers[i] = model.ProcID(uint32(e))
		off[e>>32+1]++
	}
	for p := 1; p <= n+1; p++ {
		off[p] += off[p-1]
	}
	return off, peers
}

// gossipSalt separates peer sampling from every other splitmix64 stream in
// the module.
const gossipSalt = 0x3fb49ac77d5e0281

// gossipDraw is one sample of process p's peer stream.
func gossipDraw(seed int64, p int, attempt uint64) uint64 {
	h := model.Mix(uint64(seed) ^ gossipSalt)
	h = model.Mix(h ^ uint64(p)*0x9e3779b97f4a7c15)
	return model.Mix(h ^ attempt)
}
