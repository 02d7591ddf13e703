package rewrite_test

import (
	"errors"
	"testing"

	"failstop/internal/adversary"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/rewrite"
	"failstop/internal/sim"
	"failstop/internal/sweep"
)

// falseSuspicionHistory runs the §5 protocol with erroneous suspicions and
// returns the abstract (model-level) history, which satisfies sFS but
// usually violates FS2.
func falseSuspicionHistory(t *testing.T, n int, seed int64, suspicions [][2]model.ProcID) model.History {
	t.Helper()
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 15},
		Det: core.Config{N: n, T: 3, Protocol: core.SimulatedFailStop},
	})
	for i, s := range suspicions {
		c.SuspectAt(int64(5+i), s[0], s[1])
	}
	res := c.Run()
	if !res.Quiescent() {
		t.Fatalf("run not quiescent: %+v", res.Blocked)
	}
	return res.History.DropTags(core.TagSusp)
}

func TestGraphRewriteSimple(t *testing.T) {
	// failed_2(1) before crash_1: one bad pair, independent events.
	h := model.History{
		model.Failed(2, 1),
		model.Crash(1),
	}.Normalize()
	out, st, err := rewrite.Graph(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.BadPairs != 1 {
		t.Errorf("BadPairs = %d, want 1", st.BadPairs)
	}
	if err := rewrite.Verify(h, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Kind != model.KindCrash {
		t.Errorf("crash must come first, got %s", out[0])
	}
}

func TestSwapsRewriteSimple(t *testing.T) {
	h := model.History{
		model.Failed(2, 1),
		model.Internal(3, "noise", model.None),
		model.Crash(1),
	}.Normalize()
	out, st, err := rewrite.Swaps(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := rewrite.Verify(h, out); err != nil {
		t.Fatal(err)
	}
	if st.Moves == 0 || st.Passes == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
}

func TestRewriteAlreadyFS(t *testing.T) {
	h := model.History{
		model.Crash(1),
		model.Failed(2, 1),
	}.Normalize()
	for name, fn := range map[string]func(model.History) (model.History, rewrite.Stats, error){
		"graph": rewrite.Graph,
		"swaps": rewrite.Swaps,
	} {
		out, st, err := fn(h.Clone())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.BadPairs != 0 {
			t.Errorf("%s: BadPairs = %d, want 0", name, st.BadPairs)
		}
		if err := rewrite.Verify(h, out); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRewriteRefusesMissingCrash(t *testing.T) {
	h := model.History{model.Failed(2, 1)}.Normalize()
	if _, _, err := rewrite.Graph(h); !errors.Is(err, rewrite.ErrNoCrash) {
		t.Errorf("Graph err = %v, want ErrNoCrash", err)
	}
	if _, _, err := rewrite.Swaps(h); !errors.Is(err, rewrite.ErrNoCrash) {
		t.Errorf("Swaps err = %v, want ErrNoCrash", err)
	}
	if rewrite.Realizable(h) {
		t.Error("history with undetonated detection must not be realizable")
	}
}

// Theorem 3: the exact counterexample run satisfies Conditions 1-3 yet is
// not isomorphic to any FS run; both rewriters must refuse it.
func TestTheorem3CounterexampleNotRealizable(t *testing.T) {
	h := adversary.Theorem3Run()
	if err := h.Validate(); err != nil {
		t.Fatalf("counterexample must be a valid history: %v", err)
	}
	// It satisfies Conditions 1-3 ...
	for _, v := range []checker.Verdict{
		checker.Condition1(h), checker.Condition2(h), checker.Condition3(h),
	} {
		if !v.Holds {
			t.Errorf("counterexample must satisfy %s: %s", v.Property, v.Detail)
		}
	}
	// ... but not sFS2d (which is why sFS excludes it) ...
	if v := checker.SFS2d(h); v.Holds {
		t.Error("the Theorem 3 run satisfies sFS2d?! it should not")
	}
	// ... and it is not FS-realizable.
	if rewrite.Realizable(h) {
		t.Fatal("Theorem 3 counterexample must not be realizable")
	}
	if _, _, err := rewrite.Graph(h); !errors.Is(err, rewrite.ErrNotRealizable) {
		t.Errorf("Graph err = %v, want ErrNotRealizable", err)
	}
	if _, _, err := rewrite.Swaps(h); !errors.Is(err, rewrite.ErrNotRealizable) {
		t.Errorf("Swaps err = %v, want ErrNotRealizable", err)
	}
}

// Condition 3 violation: failed_i(j) happens-before an event of j. The
// swap algorithm hits the Lemma 4 guard; the graph finds the cycle.
func TestChainedDetectionNotRealizable(t *testing.T) {
	h := model.History{
		model.Failed(1, 3),
		model.Send(1, 3, 1, "m", model.None),
		model.Recv(3, 1, 1, "m", model.None),
		model.Crash(3),
	}.Normalize()
	if rewrite.Realizable(h) {
		t.Fatal("chain into the detected process must not be realizable")
	}
	if _, _, err := rewrite.Swaps(h); !errors.Is(err, rewrite.ErrNotRealizable) {
		t.Errorf("Swaps err = %v, want ErrNotRealizable", err)
	}
}

// Theorem 5, experimentally: every sFS protocol run with erroneous
// suspicions rewrites to an isomorphic FS history, under both algorithms,
// and the two agree that a witness exists.
func TestTheorem5OnProtocolRuns(t *testing.T) {
	scenarios := [][][2]model.ProcID{
		{{2, 1}},
		{{2, 1}, {4, 3}},
		{{1, 2}, {2, 1}},
		{{5, 1}, {6, 2}, {7, 3}},
		{{1, 10}, {2, 10}},
	}
	for si, susp := range scenarios {
		for seed := int64(0); seed < 12; seed++ {
			h := falseSuspicionHistory(t, 10, seed, susp)
			// Protocol runs satisfy sFS on the abstract history...
			if v, allOK := checker.AllHold(checker.SFS(h)); !allOK {
				t.Fatalf("scenario %d seed %d: %s", si, seed, v)
			}
			// ...and must therefore be realizable, per Theorem 5.
			gout, gst, gerr := rewrite.Graph(h)
			if gerr != nil {
				t.Fatalf("scenario %d seed %d: Graph: %v", si, seed, gerr)
			}
			if err := rewrite.Verify(h, gout); err != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, err)
			}
			sout, _, serr := rewrite.Swaps(h)
			if serr != nil {
				t.Fatalf("scenario %d seed %d: Swaps: %v", si, seed, serr)
			}
			if err := rewrite.Verify(h, sout); err != nil {
				t.Fatalf("scenario %d seed %d: %v", si, seed, err)
			}
			// The rewritten histories satisfy full FS.
			for _, out := range []model.History{gout, sout} {
				if v, allOK := checker.AllHold(checker.FS(out)); !allOK {
					t.Fatalf("scenario %d seed %d: rewritten history: %s", si, seed, v)
				}
			}
			// Bad-pair counts agree between the algorithms.
			_, sst, _ := rewrite.Swaps(h)
			if gst.BadPairs != sst.BadPairs {
				t.Errorf("scenario %d seed %d: BadPairs graph=%d swaps=%d",
					si, seed, gst.BadPairs, sst.BadPairs)
			}
		}
	}
}

// The rewriters also succeed on histories where detections were genuine
// (crash already first): a genuine-crash FS run is its own witness.
func TestRewriteGenuineCrashRun(t *testing.T) {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 6, Seed: 5, MinDelay: 1, MaxDelay: 10},
		Det: core.Config{N: 6, T: 2, Protocol: core.SimulatedFailStop},
	})
	c.CrashAt(2, 6)
	c.SuspectAt(10, 1, 6)
	res := c.Run()
	h := res.History.DropTags(core.TagSusp)
	out, st, err := rewrite.Graph(h)
	if err != nil {
		t.Fatal(err)
	}
	if st.BadPairs != 0 {
		t.Errorf("genuine crash: BadPairs = %d, want 0", st.BadPairs)
	}
	if err := rewrite.Verify(h, out); err != nil {
		t.Fatal(err)
	}
}

// The cheap protocol's cyclic runs must be refused: a failed-before cycle
// is a constraint cycle.
func TestCheapCycleNotRealizable(t *testing.T) {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 2, Seed: 1, MinDelay: 5, MaxDelay: 5},
		Det: core.Config{N: 2, T: 2, Protocol: core.Cheap},
	})
	c.SuspectAt(1, 1, 2)
	c.SuspectAt(1, 2, 1)
	res := c.Run()
	h := res.History.DropTags(core.TagSusp)
	if v := checker.SFS2b(h); v.Holds {
		t.Skip("schedule did not produce the cycle")
	}
	if rewrite.Realizable(h) {
		t.Error("cyclic history must not be realizable")
	}
}

func TestVerifyCatchesBrokenWitnesses(t *testing.T) {
	orig := model.History{
		model.Failed(2, 1),
		model.Crash(1),
	}.Normalize()
	// Wrong order (FS2 still violated).
	if err := rewrite.Verify(orig, orig.Clone()); err == nil {
		t.Error("Verify must reject a non-FS2 result")
	}
	// Event set mutilated.
	short := model.History{model.Crash(1)}.Normalize()
	if err := rewrite.Verify(orig, short); err == nil {
		t.Error("Verify must reject a truncated result")
	}
	// Non-isomorphic permutation (same length, same-process order changed).
	perm := model.History{
		model.Crash(1),
		model.Failed(2, 3), // different event entirely
	}.Normalize()
	if err := rewrite.Verify(orig, perm); err == nil {
		t.Error("Verify must reject a non-isomorphic result")
	}
}

// Property: the graph rewrite is idempotent — rewriting an already-FS
// history returns it unchanged.
func TestGraphRewriteStable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		h := falseSuspicionHistory(t, 10, seed, [][2]model.ProcID{{2, 1}})
		out1, _, err := rewrite.Graph(h)
		if err != nil {
			t.Fatal(err)
		}
		out2, _, err := rewrite.Graph(out1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out1 {
			if !out1[i].Same(out2[i]) {
				t.Fatalf("seed %d: rewrite not stable at %d: %s vs %s",
					seed, i, out1[i], out2[i])
			}
		}
	}
}

func BenchmarkGraphRewrite(b *testing.B) {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 10, Seed: 3, MinDelay: 1, MaxDelay: 15},
		Det: core.Config{N: 10, T: 3, Protocol: core.SimulatedFailStop},
	})
	c.SuspectAt(5, 2, 1)
	c.SuspectAt(6, 4, 3)
	h := c.Run().History.DropTags(core.TagSusp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rewrite.Graph(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwapsRewrite(b *testing.B) {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 10, Seed: 3, MinDelay: 1, MaxDelay: 15},
		Det: core.Config{N: 10, T: 3, Protocol: core.SimulatedFailStop},
	})
	c.SuspectAt(5, 2, 1)
	c.SuspectAt(6, 4, 3)
	h := c.Run().History.DropTags(core.TagSusp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rewrite.Swaps(h); err != nil {
			b.Fatal(err)
		}
	}
}

// Property on arbitrary valid histories (not only sFS ones): the two
// rewriters are consistent — whenever the swap algorithm produces a
// witness, the graph algorithm does too (a witness exists), and whenever
// the graph proves no witness exists, the swap algorithm must not produce
// one. Successful outputs always verify.
func TestQuickRewritersConsistentOnArbitraryHistories(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		g := model.NewGen(seed)
		h := g.History(5, 80)
		gout, _, gerr := rewrite.Graph(h)
		sout, _, serr := rewrite.Swaps(h)
		if gerr == nil {
			if err := rewrite.Verify(h, gout); err != nil {
				t.Fatalf("seed %d: graph witness invalid: %v", seed, err)
			}
		}
		if serr == nil {
			if err := rewrite.Verify(h, sout); err != nil {
				t.Fatalf("seed %d: swap witness invalid: %v", seed, err)
			}
			if gerr != nil {
				t.Fatalf("seed %d: swaps found a witness but graph proved none exists", seed)
			}
		}
	}
}

// Property: realizability is invariant under valid reorderings — rewriting
// and re-checking gives the same answer.
func TestQuickRealizabilityStableUnderRewrite(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		h := model.NewGen(seed).History(4, 60)
		out, _, err := rewrite.Graph(h)
		if err != nil {
			continue
		}
		if !rewrite.Realizable(out) {
			t.Fatalf("seed %d: rewritten FS history not realizable", seed)
		}
	}
}

// TestRewriteAllocBudget pins what the rewriter costs the allocator on the
// abstract history of an n=20, t=3 run under the sweep's "crash" schedule
// (105 events, 51 detections) — the check-replay benchmark's shape — at what
// it measures plus a tenth: Graph 8 (the index's six, one array carved
// into edge lists, offsets, in-degrees and heap, the output) and Verify 11
// (Validate's maps, IsomorphicTo's cursors, the index). With per-node
// adjacency slices, a boxed container/heap, Validate's six maps and a
// Projection per process they were 125 and 156.
func TestRewriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement")
	}
	sched, ok := sweep.Builtin("crash")
	if !ok {
		t.Fatal("no builtin crash schedule")
	}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 20, Seed: 1},
		Det: core.Config{N: 20, T: 3, Protocol: core.SimulatedFailStop},
	})
	for _, f := range sched.Faults(sweep.NT{N: 20, T: 3}, 1) {
		switch f.Kind {
		case sweep.FaultCrash:
			c.CrashAt(f.At, f.Proc)
		case sweep.FaultSuspect:
			c.SuspectAt(f.At, f.Proc, f.Target)
		}
	}
	h := checker.Abstract(c.Run().History, core.TagSusp)
	out, _, err := rewrite.Graph(h)
	if err != nil {
		t.Fatal(err)
	}
	graph := testing.AllocsPerRun(5, func() { _, _, _ = rewrite.Graph(h) })
	verify := testing.AllocsPerRun(5, func() { err = rewrite.Verify(h, out) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d events: Graph %.0f allocations, Verify %.0f", len(h), graph, verify)
	if graph > 9 || verify > 12 {
		t.Errorf("Graph allocated %.0f times and Verify %.0f, budgets 9 and 12", graph, verify)
	}
}
