package checker_test

import (
	"testing"
	"time"

	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/sim"
	"failstop/internal/sweep"
)

// crashHistory records one §5-protocol run of n processes under the
// sweep's builtin "crash" schedule: t crashes, each detected by everyone.
func crashHistory(tb testing.TB, n, t int) model.History {
	tb.Helper()
	sched, ok := sweep.Builtin("crash")
	if !ok {
		tb.Fatal("no builtin crash schedule")
	}
	nt := sweep.NT{N: n, T: t}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: n, Seed: 1},
		Det: core.Config{N: n, T: t, Protocol: core.SimulatedFailStop},
	})
	for _, f := range sched.Faults(nt, 1) {
		switch f.Kind {
		case sweep.FaultCrash:
			c.CrashAt(f.At, f.Proc)
		case sweep.FaultSuspect:
			c.SuspectAt(f.At, f.Proc, f.Target)
		}
	}
	res := c.Run()
	if !res.Quiescent() {
		tb.Fatalf("n=%d t=%d crash run did not drain", n, t)
	}
	return res.History
}

// The checker runs once per sweep run, so its allocation count is a sweep
// cost: with map-of-bools quorum families and a per-tuple Witness search it
// was 84,265 on this history, most of a sweep's total, and 243 while the run
// was read six times into per-event clocks, per-process slices and maps, and
// 28 while one scan walked the history twice and grew its tables by
// appending, and 15 (budget 16) while one walk cut what it returned to size
// at the end and every check made its own tables. Read borrowed, in pooled
// tables, it measures 1 — the verdict slice; a violation would add its
// detail — and the budget is that plus a tenth.
func TestAllAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement")
	}
	h := crashHistory(t, 20, 3)
	var vs []checker.Verdict
	allocs := testing.AllocsPerRun(5, func() { vs = checker.All(h, core.TagSusp, 3) })
	if v, ok := checker.AllHold(vs); !ok {
		t.Fatalf("n=20 t=3 crash history: %s", v)
	}
	t.Logf("checker.All on %d events: %.0f allocs", len(h), allocs)
	if allocs > 1.1 {
		t.Errorf("checker.All allocated %.0f times on the n=20 t=3 crash history, budget 1.1", allocs)
	}
}

// An n=40 history (114 detections) took 340 ms to check when the Witness
// search enumerated C(114, 3) tuples; 50 ms is generous for a loaded CI
// host and two orders of magnitude below a return of the enumerator.
func TestAllLargeHistoryTimeBudget(t *testing.T) {
	h := crashHistory(t, 40, 3)
	best := time.Duration(1 << 62)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		vs := checker.All(h, core.TagSusp, 3)
		if d := time.Since(t0); d < best {
			best = d
		}
		if v, ok := checker.AllHold(vs); !ok {
			t.Fatalf("n=40 t=3 crash history: %s", v)
		}
	}
	t.Logf("checker.All on %d events: %v", len(h), best)
	if best > 50*time.Millisecond {
		t.Errorf("checker.All took %v on the n=40 t=3 crash history, budget 50ms", best)
	}
}

func benchmarkAll(b *testing.B, n int) {
	h := crashHistory(b, n, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checker.All(h, core.TagSusp, 3)
	}
}

func BenchmarkAllN20(b *testing.B) { benchmarkAll(b, 20) }
func BenchmarkAllN40(b *testing.B) { benchmarkAll(b, 40) }
