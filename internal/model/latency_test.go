package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// literalLatencies is each measure of Latency written as its definition, a
// walk of the event list per detection and per crashed process, with no
// table: the reference the scan's one walk is held to.
func literalLatencies(h History, suspTag string) []Latency {
	for i := range h {
		if h[i].outOfRange() {
			return nil
		}
	}
	var out []Latency
	for k, e := range h {
		if e.Kind != KindFailed {
			continue
		}
		l := Latency{Detection: Detection{Detector: e.Proc, Detected: e.Target, Index: k}, Tick: e.Time,
			FirstSuspicion: -1, Pair: -1, Quorum: -1, All: -1}
		for _, s := range h[:k] { // the first suspect of j anywhere
			if s.Kind == KindInternal && s.Tag == TagSuspect && s.Target == e.Target {
				l.FirstSuspicion = e.Time - s.Time
				break
			}
		}
		for _, s := range h[:k] { // i's own first suspect(i, j)
			if s.Kind == KindInternal && s.Tag == TagSuspect && s.Target == e.Target && s.Proc == e.Proc {
				l.Pair = e.Time - s.Time
				break
			}
		}
		for _, r := range h[:k] { // the last "j failed" i received
			if r.Kind == KindRecv && r.Tag == suspTag && r.Proc == e.Proc && r.Target == e.Target && e.Target != None {
				l.Quorum = r.Time
			}
		}
		out = append(out, l)
	}
	row := func(at int) int { // the row of the detection at h[at]
		for k, l := range out {
			if l.Index == at {
				return k
			}
		}
		return -1
	}
	n, down := ProcID(h.Processes()), h.DownAtEnd()
	for j := ProcID(1); j <= n; j++ {
		crashed := -1
		for k, e := range h {
			if e.Kind == KindCrash && e.Proc == j {
				crashed = k
			}
		}
		if !down[j] {
			continue
		}
		last, every, some := -1, true, false
		for i := ProcID(1); i <= n; i++ {
			if down[i] {
				continue
			}
			some = true
			at := h.FailedIndex(i, j)
			if at < 0 {
				every = false
				break
			}
			if k := row(at); last < 0 || out[k].Tick > out[last].Tick || out[k].Tick == out[last].Tick && k > last {
				last = k
			}
		}
		if every && some && out[last].Tick >= h[crashed].Time {
			out[last].All = out[last].Tick - h[crashed].Time
		}
	}
	return out
}

// LiteralLatencies lets the simulated-run test in model_test use the reference.
var LiteralLatencies = literalLatencies

// timed stamps h with ticks that never run backwards and puts an internal
// suspect before some of its events, by the event's process, naming a
// process of 0..n: what a recorded run of the detector looks like to the
// latency walk, which Gen alone never makes.
func timed(h History, n int, rng *rand.Rand) History {
	var out History
	tick := int64(rng.Intn(5))
	for _, e := range h {
		if e.Proc >= 0 && rng.Intn(4) == 0 {
			out = append(out, Event{Proc: e.Proc, Kind: KindInternal, Tag: TagSuspect, Target: ProcID(rng.Intn(n + 1)), Time: tick})
		}
		tick += int64(rng.Intn(4))
		e.Time = tick
		out = append(out, e)
	}
	return out.Normalize()
}

// recrashed is h with each crashed process restarted a few events after its
// crash and crashed again at once: a process whose last crash is not its
// first.
func recrashed(h History) History {
	out := h.Clone()
	for k := len(h) - 1; k >= 0; k-- { // last first: an insertion moves no crash still to come
		if p := h[k].Proc; h[k].Kind == KindCrash {
			out = slices.Insert(out, min(k+2+k%3, len(h)), Restart(p), Crash(p))
		}
	}
	return out
}

// latencyHistories are generated histories at n ≤ 6, with detections and
// crashes frequent and suspicions and ticks added (and again with every
// crash repeated after a restart), and the oracle's hand-built ones
// (restarts, widenings, out-of-range ids) with ticks added.
func latencyHistories() map[string]History {
	out := map[string]History{}
	rng := rand.New(rand.NewSource(45))
	for seed := int64(0); seed < 300; seed++ {
		n := 2 + int(seed%5)
		g := NewGen(seed)
		g.FailedWeight, g.CrashWeight = 20+int(seed%4)*20, 4+int(seed%3)*6
		h := g.History(n, 10+int(seed%50))
		out[fmt.Sprintf("gen-%d", seed)] = timed(h, n, rng)
		out[fmt.Sprintf("gen-%d-recrashed", seed)] = timed(recrashed(h), n, rng)
		// The suspTag rows: every receive re-tagged as a suspicion.
		sus := h.Clone()
		for i := range sus {
			if sus[i].Kind == KindSend || sus[i].Kind == KindRecv {
				sus[i].Tag, sus[i].Target = "SUSP", ProcID(1+(i%n))
			}
		}
		out[fmt.Sprintf("gen-%d-susp", seed)] = timed(sus, n, rng)
	}
	for name, h := range oracleHistories() {
		out["oracle-"+name] = timed(h, 8, rng)
	}
	return out
}

// Each row of Latencies is the literal definition's, measure for measure, on
// every history latencyHistories makes — from a fresh scratch and from one
// poisoned with garbage — and each measure is seen both defined and not.
func TestLatenciesMatchDefinitions(t *testing.T) {
	var seen [4][2]int
	w := new(scratch)
	k := 0
	for name, h := range latencyHistories() {
		want := literalLatencies(h, "SUSP")
		if got := Latencies(h, "SUSP"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Latencies\n got %+v\nwant %+v", name, got, want)
		}
		k++
		poison(w, k)
		if s := w.scan(h, nil, "SUSP", readLatency); s.Index.Err() == nil && !reflect.DeepEqual(append([]Latency(nil), w.lat...), want) {
			t.Fatalf("%s: from a poisoned scratch\n got %+v\nwant %+v", name, w.lat, want)
		}
		for _, l := range want {
			for m, v := range [...]int64{l.FirstSuspicion, l.Pair, l.Quorum, l.All} {
				if v >= 0 {
					seen[m][0]++
				} else {
					seen[m][1]++
				}
			}
		}
	}
	for m, name := range [...]string{"FirstSuspicion", "Pair", "Quorum", "All"} {
		if seen[m][0] == 0 || seen[m][1] == 0 {
			t.Errorf("%s defined on %d rows and not on %d: the set misses a side", name, seen[m][0], seen[m][1])
		}
		t.Logf("%s defined on %d rows, not on %d", name, seen[m][0], seen[m][1])
	}
}

// A reading that does not ask for latency leaves the latency tables as empty
// as it found them after reset: NewScan, NewIndex and DropTags pay nothing
// for a walk they do not read.
func TestLatencyTablesUnreadUnpaid(t *testing.T) {
	w := new(scratch)
	for name, h := range latencyHistories() {
		for _, r := range readings {
			poison(w, len(name))
			w.scan(h, []string{"HB"}, "SUSP", r.want())
			if n := len(w.fsusp) + len(w.lcrash) + len(w.psusp) + len(w.hlast) + len(w.lat); n != 0 {
				t.Fatalf("%s/%s: %d latency entries filled", name, r.name, n)
			}
		}
	}
}
