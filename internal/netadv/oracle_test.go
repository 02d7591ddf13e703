package netadv

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/topo"
)

// mapPlane is the fate plane as it was while Go maps held its state: the
// message index per Link, the shaping backlog per (rule, link), the replay
// memory per (rule, link), and every group, pair and tag selector. Its
// windows, topology, PRNG streams and counters are those of the Plane it
// wraps (built from the same plan and seed, and never asked to Decide);
// everything a map held is its own. It is the oracle
// TestPlaneMatchesMapOracle holds Plane to.
type mapPlane struct {
	*Plane
	groupOf    []map[model.ProcID]int // per rule: proc -> group index
	pairs      []map[Link]bool        // per rule
	tags       []map[string]bool      // per rule
	byzGroupOf []map[model.ProcID]int // per Byzantine rule: receiver -> equivocation group
	byzTags    []map[string]bool      // per Byzantine rule
	seq        map[Link]uint64
	busyUntil  map[busyKey]int64
	replayMem  map[byzKey]node.Payload
}

type busyKey struct {
	rule int
	link Link
}

type byzKey struct {
	rule int
	link Link
}

func newMapPlane(plan Plan, n int, seed int64) *mapPlane {
	mp := &mapPlane{
		Plane: NewPlane(plan, n, seed),
		seq:   map[Link]uint64{}, busyUntil: map[busyKey]int64{}, replayMem: map[byzKey]node.Payload{},
	}
	for _, r := range plan.Rules {
		g := map[model.ProcID]int{}
		for gi, grp := range r.Links.Groups {
			for _, proc := range grp {
				g[proc] = gi
			}
		}
		p := map[Link]bool{}
		for _, l := range r.Links.Pairs {
			p[l] = true
		}
		mp.groupOf, mp.pairs, mp.tags = append(mp.groupOf, g), append(mp.pairs, p), append(mp.tags, tagSet(r.Tags))
	}
	for _, b := range plan.Byz {
		g := map[model.ProcID]int{}
		for gi, grp := range b.Equivocate {
			for _, proc := range grp {
				g[proc] = gi
			}
		}
		mp.byzGroupOf, mp.byzTags = append(mp.byzGroupOf, g), append(mp.byzTags, tagSet(b.Tags))
	}
	return mp
}

func tagSet(tags []string) map[string]bool {
	set := map[string]bool{}
	for _, t := range tags {
		set[t] = true
	}
	return set
}

func (mp *mapPlane) byzMatches(bi int, from model.ProcID, tag string) bool {
	if from != mp.byzRules[bi].Victim {
		return false
	}
	return len(mp.byzTags[bi]) == 0 || mp.byzTags[bi][tag]
}

func (mp *mapPlane) matches(ri int, from, to model.ProcID, tag string) bool {
	cr := &mp.rules[ri]
	if len(mp.tags[ri]) > 0 && !mp.tags[ri][tag] {
		return false
	}
	if cr.Links.Empty() {
		return true
	}
	if mp.pairs[ri][Link{From: from, To: to}] {
		return true
	}
	if cr.top != nil {
		for _, reg := range cr.Links.Regions {
			if (cr.top.RegionOf(from) == reg) != (cr.top.RegionOf(to) == reg) {
				return true
			}
		}
		for _, rk := range cr.Links.Racks {
			if (cr.top.RackOf(from) == rk) != (cr.top.RackOf(to) == rk) {
				return true
			}
		}
	}
	if len(mp.groupOf[ri]) > 0 {
		gf, okf := mp.groupOf[ri][from]
		gt, okt := mp.groupOf[ri][to]
		if !okf {
			gf = -1
		}
		if !okt {
			gt = -1
		}
		if gf != gt {
			return true
		}
	}
	return false
}

func (mp *mapPlane) Decide(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
	var dec node.LinkDecision
	link := Link{From: from, To: to}
	idx := mp.seq[link]
	mp.seq[link] = idx + 1
	anyMatch := false
	for i := range mp.rules {
		if mp.rules[i].activeAt(at) && mp.matches(i, from, to, p.Tag) {
			anyMatch = true
			break
		}
	}
	anyByz := false
	for i := range mp.byzRules {
		if inWindow(at, mp.byzRules[i].From, mp.byzRules[i].Until) && mp.byzMatches(i, from, p.Tag) {
			anyByz = true
			break
		}
	}
	if !anyMatch && !anyByz {
		mp.count(dec, 0)
		return dec
	}
	var held int64
	if anyMatch {
		rng := newStream(mp.seed, from, to, idx)
		for i := range mp.rules {
			cr := &mp.rules[i]
			drop := rng.float64()
			dup := rng.float64()
			reord := rng.float64()
			jit := rng.uint64()
			if !cr.activeAt(at) || !mp.matches(i, from, to, p.Tag) {
				continue
			}
			if cr.Cut || drop < cr.Drop {
				dec.Drop = true
			}
			if cr.Hold {
				if hold := cr.healAt(at) - at; hold > dec.ExtraDelay {
					dec.ExtraDelay = hold
					held = hold
				}
			}
			if dup < cr.Duplicate {
				dec.Duplicates++
			}
			if reord < cr.Reorder {
				dec.Reorder = true
			}
			if cr.JitterMax > 0 {
				dec.ExtraDelay += int64(jit % uint64(cr.JitterMax+1))
			}
			if cr.QueueDelay > 0 {
				k := busyKey{rule: i, link: link}
				wait := mp.busyUntil[k] - at
				if wait < 0 {
					wait = 0
				}
				mp.busyUntil[k] = at + wait + cr.QueueDelay
				dec.ExtraDelay += wait
			}
		}
	}
	mp.applyByz(&dec, from, to, p, link, idx, at)
	mp.count(dec, held)
	return dec
}

func (mp *mapPlane) applyByz(dec *node.LinkDecision, from, to model.ProcID, p node.Payload, link Link, idx uint64, at int64) {
	if len(mp.byzRules) == 0 || dec.Drop {
		return
	}
	wire := p
	anyReplay := false
	for bi := range mp.byzRules {
		cb := &mp.byzRules[bi]
		if !inWindow(at, cb.From, cb.Until) || !mp.byzMatches(bi, from, p.Tag) {
			continue
		}
		brng := newByzStream(mp.seed, bi, from, to, idx)
		corruptRoll := brng.float64()
		replayRoll := brng.float64()
		delta := 1 + int(brng.uint64()%uint64(mp.n-1))
		if g, ok := mp.byzGroupOf[bi][to]; ok && g > 0 {
			wire = equivocatePayload(wire, from, g, mp.n)
			dec.Replace = &node.Replacement{Payload: wire, Note: "equiv=g" + strconv.Itoa(g)}
			mp.fates[fateEquivocated].Inc()
		} else if cb.Corrupt > 0 && corruptRoll < cb.Corrupt {
			wire = corruptPayload(wire, delta, mp.n)
			dec.Replace = &node.Replacement{Payload: wire, Note: "corrupt"}
			mp.fates[fateCorrupted].Inc()
		}
		if cb.Replay > 0 && replayRoll < cb.Replay {
			if mem, ok := mp.replayMem[byzKey{rule: bi, link: link}]; ok {
				dec.Replay = &node.ReplayedCopy{Payload: mem, Delay: cb.ReplayDelay}
				mp.fates[fateReplayed].Inc()
			}
		}
		if cb.Replay > 0 {
			anyReplay = true
		}
	}
	if !anyReplay {
		return
	}
	for bi := range mp.byzRules {
		cb := &mp.byzRules[bi]
		if cb.Replay > 0 && inWindow(at, cb.From, cb.Until) && mp.byzMatches(bi, from, p.Tag) {
			mp.replayMem[byzKey{rule: bi, link: link}] = wire
		}
	}
}

// oracleSend is one message of a test's send stream.
type oracleSend struct {
	from, to model.ProcID
	p        node.Payload
	at       int64
}

// oraclePayload draws a payload for a stream: tags every builtin selects
// on and some it does not, subjects in and out of 1..n, and data that is
// sometimes a sealed body (so equivocation reseals it) and sometimes empty.
func oraclePayload(rng *rand.Rand, n int) node.Payload {
	tags := [...]string{"SUSP", "SUSP", "APP", "HB", "REL.ACK"}
	p := node.Payload{Tag: tags[rng.Intn(len(tags))], Subject: model.ProcID(rng.Intn(n+3) - 1)}
	switch rng.Intn(3) {
	case 0:
		p.Data = make([]byte, 25+rng.Intn(4))
		p.Data[0] = 0xB1 // a byz-sealed body's kind byte
		rng.Read(p.Data[1:])
	case 1:
		p.Data = []byte{byte(rng.Intn(256))}
	}
	return p
}

// matchOracle decides stream on a Plane and on the map plane built from the
// same plan and seed, and fails at the first message whose decision or link
// index differs; at the end their metrics must agree.
func matchOracle(t *testing.T, name string, plan Plan, n int, seed int64, stream []oracleSend) {
	t.Helper()
	pl, mp := NewPlane(plan, n, seed), newMapPlane(plan, n, seed)
	for i, s := range stream {
		got := pl.Decide(s.from, s.to, s.p, s.at)
		want := mp.Decide(s.from, s.to, s.p, s.at)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s n=%d: message %d (%d->%d %s at %d): Decide = %+v, map plane %+v", name, n, i, s.from, s.to, s.p.Tag, s.at, got, want)
		}
		if idx, want := *pl.seq.GetLink(s.from, s.to), mp.seq[Link{From: s.from, To: s.to}]; idx != want {
			t.Fatalf("%s n=%d: message %d (%d->%d): link has carried %d messages, map plane says %d", name, n, i, s.from, s.to, idx, want)
		}
	}
	if got, want := pl.Metrics(), mp.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s n=%d: metrics %v, map plane %v", name, n, got, want)
	}
	if got, want := pl.seq.Len(), len(mp.seq); got != want {
		t.Fatalf("%s n=%d: %d links remembered, map plane %d", name, n, got, want)
	}
}

// TestPlaneMatchesMapOracle holds the table-backed plane to the map-backed
// one it replaced, decision by decision: every builtin and every example
// plan file at n = 2, 5 and 10 over random links — ids 0, -1 and n+1 among
// them — and ticks that cross every rule window; and flaky-quorum at
// n = 10,000 over a gossip:8 overlay, every process sending to each
// neighbour twice, with the same stray ids mixed in.
func TestPlaneMatchesMapOracle(t *testing.T) {
	type named struct {
		name string
		make func(n, t int) Plan
	}
	var plans []named
	for _, g := range Builtins() {
		plans = append(plans, named{g.Name, g.Make})
	}
	files, err := filepath.Glob("../../examples/plans/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example plans (err %v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, named{filepath.Base(path), func(int, int) Plan { return plan }})
	}
	for _, pm := range plans {
		for _, n := range []int{2, 5, 10} {
			plan := pm.make(n, max(1, (n-1)/3))
			if plan.Validate(n) != nil {
				continue // an example written for a larger cluster
			}
			rng := rand.New(rand.NewSource(int64(n)*7919 + int64(len(pm.name))))
			ids := func() model.ProcID {
				if rng.Intn(8) == 0 {
					return [...]model.ProcID{0, -1, model.ProcID(n + 1)}[rng.Intn(3)]
				}
				return model.ProcID(rng.Intn(n) + 1)
			}
			var stream []oracleSend
			for i := 0; i < 3000; i++ {
				stream = append(stream, oracleSend{from: ids(), to: ids(), p: oraclePayload(rng, n), at: int64(i / 2)})
			}
			matchOracle(t, pm.name, plan, n, 11, stream)
		}
	}

	const n = 10_000
	g, _ := Builtin("flaky-quorum")
	top := topo.MustNew(topo.Spec{Kind: topo.KindGossip, Fanout: 8}, n)
	rng := rand.New(rand.NewSource(1))
	var stream []oracleSend
	for round := int64(0); round < 2; round++ {
		for from := model.ProcID(1); from <= n; from++ {
			top.ForEachPeer(from, func(to model.ProcID) {
				stream = append(stream, oracleSend{from: from, to: to, p: oraclePayload(rng, n), at: round*100 + int64(from)%100})
			})
			if from%97 == 0 {
				stray := [...]model.ProcID{0, -1, n + 1}[from%3]
				stream = append(stream, oracleSend{from: stray, to: from, p: oraclePayload(rng, n), at: round * 100},
					oracleSend{from: from, to: stray, p: oraclePayload(rng, n), at: round * 100})
			}
		}
	}
	matchOracle(t, "flaky-quorum/gossip:8", g.Make(n, 5), n, 3, stream)
}

// TestConcurrentPlaneMatchesMapOracle: the live runtime decides each
// sender's messages on that sender's goroutine, all through one Plane. Four
// goroutines share a plane whose rules keep every kind of per-link state —
// the message index, a shaping backlog, replay memories — and each drives
// the links of its own senders; every link must see the decisions the map
// plane makes when the same messages arrive one at a time.
func TestConcurrentPlaneMatchesMapOracle(t *testing.T) {
	const n, workers, rounds = 8, 4, 300
	plan := Plan{
		Name: "everything",
		Rules: []Rule{
			{Drop: 0.2, Duplicate: 0.2, Reorder: 0.1, JitterMax: 4},
			{QueueDelay: 3, Links: LinkSet{Pairs: []Link{{From: 1, To: 2}, {From: 2, To: 1}, {From: 5, To: 3}}}},
			{From: 50, Until: 150, Hold: true, Links: LinkSet{Groups: [][]model.ProcID{{1, 2, 3}}}},
		},
		Byz: []ByzRule{
			{Victim: 7, Equivocate: [][]model.ProcID{{1, 2, 3}, {4, 5, 6, 8}}, Replay: 0.5, ReplayDelay: 9},
			{Victim: 8, Corrupt: 0.5, Replay: 1},
		},
	}
	// stream is the messages sender from puts on the wire, in order.
	stream := func(from model.ProcID) []oracleSend {
		rng := rand.New(rand.NewSource(int64(from)))
		var out []oracleSend
		for i := 0; i < rounds; i++ {
			to := model.ProcID(rng.Intn(n) + 1)
			if rng.Intn(10) == 0 {
				to = [...]model.ProcID{0, -1, n + 1}[rng.Intn(3)]
			}
			out = append(out, oracleSend{from: from, to: to, p: oraclePayload(rng, n), at: int64(i)})
		}
		return out
	}
	pl, mp := NewPlane(plan, n, 5), newMapPlane(plan, n, 5)
	got := make([][]node.LinkDecision, n+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for from := model.ProcID(w + 1); from <= n; from += workers {
				for _, s := range stream(from) {
					got[from] = append(got[from], pl.Decide(s.from, s.to, s.p, s.at))
				}
			}
		}(w)
	}
	wg.Wait()
	for from := model.ProcID(1); from <= n; from++ {
		for i, s := range stream(from) {
			if want := mp.Decide(s.from, s.to, s.p, s.at); !reflect.DeepEqual(got[from][i], want) {
				t.Fatalf("sender %d message %d (to %d at %d): Decide = %+v, map plane %+v", from, i, s.to, s.at, got[from][i], want)
			}
		}
	}
	if got, want := pl.Metrics(), mp.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics %v, map plane %v", got, want)
	}
}

// TestPlaneFootprintLinear: at n = 10,000, a plane whose 100 senders each
// decide 16 links holds what those 1,600 links need and nothing sized by n:
// under 96 B allocated a link, every doubling's garbage counted (the
// map-keyed plane it replaced allocated 68 B a link here, the table 71). A
// slot array of n alone would add 82 B a link; one of n² far more.
func TestPlaneFootprintLinear(t *testing.T) {
	const n, senders, fanout = 10_000, 100, 16
	g, _ := Builtin("flaky-quorum")
	plan := g.Make(n, 5)
	build := func() *Plane {
		pl := NewPlane(plan, n, 1)
		p := node.Payload{Tag: "SUSP"}
		for s := model.ProcID(1); s <= senders; s++ {
			from := s * (n / senders) // spread over 1..n
			for k := model.ProcID(1); k <= fanout; k++ {
				pl.Decide(from, (from+k*613)%n+1, p, 0)
			}
		}
		return pl
	}
	build() // warm anything lazily built once per process
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pl := build()
	runtime.ReadMemStats(&after)
	if pl.seq.Len() != senders*fanout {
		t.Fatalf("plane remembers %d links, want %d", pl.seq.Len(), senders*fanout)
	}
	perLink := (after.TotalAlloc - before.TotalAlloc) / (senders * fanout)
	t.Logf("%d links at n=%d: %d B allocated a link", senders*fanout, n, perLink)
	if perLink >= 96 {
		t.Errorf("%d links at n=%d allocated %d B a link, want under 96", senders*fanout, n, perLink)
	}
	runtime.KeepAlive(pl)
}
