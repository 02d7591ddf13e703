package checker_test

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"failstop"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/rewrite"
	"failstop/internal/sim"
	"failstop/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/read_golden.txt from this build's checker.All and rewrite.Graph")

// recorded is one history of the reading corpus: the full recorded run, the
// failure bound its Witness check uses, and — for runs made through the
// facade — the seven verdicts failstop.(*Cluster).Run reported.
type recorded struct {
	name   string
	h      model.History
	t      int
	facade []checker.Verdict
}

// mutate applies one single-event mutation that keeps every process id in
// 1..n: the result is usually not a valid history, which is the point —
// the checkers must give the same answer on it however they read it.
func mutate(h model.History, n int, rng *rand.Rand) model.History {
	out := h.Clone()
	if len(out) < 2 {
		return out
	}
	k := rng.Intn(len(out) - 1)
	switch rng.Intn(5) {
	case 0: // drop an event
		out = append(out[:k], out[k+1:]...)
	case 1: // swap two neighbours
		out[k], out[k+1] = out[k+1], out[k]
	case 2: // repeat an event
		out = append(out[:k+1], out[k:]...)
	case 3: // name another subject
		out[k].Target = model.ProcID(rng.Intn(n) + 1)
	case 4: // hand the event to another process
		out[k].Proc = model.ProcID(rng.Intn(n) + 1)
	}
	return out.Normalize()
}

// crashDetected appends crash_j for every process some failed_i(j) names
// and that never crashes, in id order: the result is still valid and every
// detection has the crash rewrite.Graph needs, so Graph orders it (or finds
// a cycle) instead of refusing it.
func crashDetected(h model.History, n int) model.History {
	out := h.Clone()
	for j := model.ProcID(1); int(j) <= n; j++ {
		if h.CrashIndex(j) >= 0 {
			continue
		}
		for _, d := range h.Detections() {
			if d.Detected == j {
				out = append(out, model.Crash(j))
				break
			}
		}
	}
	return out.Normalize()
}

// scheduled records one §5-protocol run under a builtin sweep schedule,
// delay function included (false-suspicion runs under SlowKillDelay).
func scheduled(tb testing.TB, name string, n, t int, seed int64) model.History {
	tb.Helper()
	sched, ok := sweep.Builtin(name)
	if !ok {
		tb.Fatalf("no builtin schedule %q", name)
	}
	nt := sweep.NT{N: n, T: t}
	cfg := sim.Config{N: n, Seed: seed}
	if sched.Delay != nil {
		cfg.Delay = sched.Delay(nt, seed)
	}
	c := cluster.New(cluster.Options{Sim: cfg, Det: core.Config{N: n, T: t, Protocol: core.SimulatedFailStop}})
	for _, f := range sched.Faults(nt, seed) {
		switch f.Kind {
		case sweep.FaultCrash:
			c.CrashAt(f.At, f.Proc)
		case sweep.FaultSuspect:
			c.SuspectAt(f.At, f.Proc, f.Target)
		}
	}
	res := c.Run()
	if !res.Quiescent() {
		tb.Fatalf("%s n=%d t=%d seed=%d did not drain", name, n, t, seed)
	}
	return res.History
}

// readingCorpus is what TestOneScanMatchesStandalone and the pinned digests
// range over: generated histories, their completions and single-event mutations, the
// check-replay shape, one run with every interposer at work and one with
// restarts.
func readingCorpus(tb testing.TB) []recorded {
	tb.Helper()
	var out []recorded
	for seed := int64(0); seed < 40; seed++ {
		n := 3 + int(seed%6)
		h := model.NewGen(seed).History(n, 160)
		out = append(out, recorded{name: fmt.Sprintf("gen/%d", seed), h: h, t: 1 + int(seed%3)})
		out = append(out, recorded{name: fmt.Sprintf("gen/%d/crashed", seed), h: crashDetected(h, n), t: 1 + int(seed%3)})
		rng := rand.New(rand.NewSource(seed))
		for m := 0; m < 3; m++ {
			out = append(out, recorded{name: fmt.Sprintf("gen/%d/mut%d", seed, m), h: mutate(h, n, rng), t: 1 + int(seed%3)})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, sched := range []string{"crash", "false-suspicion"} {
			out = append(out, recorded{
				name: fmt.Sprintf("replay/%s/%d", sched, seed),
				h:    scheduled(tb, sched, 20, 3, seed), t: 3,
			})
		}
	}

	flaky, err := failstop.BuiltinFaultPlan("flaky-quorum", 10, 3)
	if err != nil {
		tb.Fatal(err)
	}
	c := failstop.NewCluster(failstop.Options{
		N: 10, T: 3, Seed: 7, MaxTime: 1500,
		HeartbeatEvery: 25, HeartbeatTimeout: 80,
		Faults:    &flaky,
		Reliable:  failstop.ReliableOptions{Enabled: true},
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	})
	c.CrashAt(100, 10)
	rep := c.Run()
	out = append(out, recorded{name: "stack-faulty", h: rep.History, t: 3, facade: rep.Verdicts})

	storm, err := failstop.BuiltinFaultPlan("restart-storm", 5, 2)
	if err != nil {
		tb.Fatal(err)
	}
	rep = failstop.NewCluster(failstop.Options{
		N: 5, T: 2, Seed: 11, MaxTime: 2000, Faults: &storm,
		Recovery: failstop.RecoveryDurable,
	}).Run()
	if rep.Restarts == 0 {
		tb.Fatal("restart-storm run recorded no restart")
	}
	out = append(out, recorded{name: "restart-storm", h: rep.History, t: 2, facade: rep.Verdicts})
	return out
}

func digestVerdicts(vs []checker.Verdict) uint64 {
	d := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(d, "%s|%v|%s\n", v.Property, v.Holds, v.Detail)
	}
	return d.Sum64()
}

// digestGraph folds rewrite.Graph's answer on h: the emitted order event by
// event and the stats, or the error text.
func digestGraph(h model.History) uint64 {
	d := fnv.New64a()
	out, st, err := rewrite.Graph(h)
	if err != nil {
		fmt.Fprintf(d, "error: %v", err)
		return d.Sum64()
	}
	for _, e := range out {
		fmt.Fprintf(d, "%d %d %d %d %d %d %s %d\n", e.Seq, e.Proc, e.Kind, e.Peer, e.Target, e.Msg, e.Tag, e.Time)
	}
	fmt.Fprintf(d, "%+v", st)
	return d.Sum64()
}

// TestReadingPinned: the ten verdicts — Property, Holds and Detail — the
// facade's seven, and rewrite.Graph's output (the lexicographically earliest
// topological order must not drift) on every corpus history equal what the
// code gave at 6212e61, before a recorded run was read in one scan.
func TestReadingPinned(t *testing.T) {
	const path = "testdata/read_golden.txt"
	var got []string
	for _, r := range readingCorpus(t) {
		ab := checker.Abstract(r.h, core.TagSusp)
		got = append(got, fmt.Sprintf("%s events=%d abstract=%d all=%016x facade=%016x graph=%016x",
			r.name, len(r.h), len(ab),
			digestVerdicts(checker.All(r.h, core.TagSusp, r.t)), digestVerdicts(r.facade), digestGraph(ab)))
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for i := 0; sc.Scan(); i++ {
		if i >= len(got) {
			t.Fatalf("%s has more lines than the corpus has histories (%d)", path, len(got))
		}
		if sc.Text() != got[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], sc.Text())
		}
		got[i] = ""
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, g := range got {
		if g != "" {
			t.Errorf("not in %s: %s", path, g)
		}
	}
}
