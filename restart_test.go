package failstop_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"failstop"
	"failstop/internal/model"
)

// stormFate reduces a run to its backend-independent restart outcome: for
// each process, whether it ever plan-crashed and whether it ever restarted.
type stormFate struct {
	crashed   map[failstop.ProcID]bool
	restarted map[failstop.ProcID]bool
}

func historyFate(h failstop.History) stormFate {
	f := stormFate{
		crashed:   make(map[failstop.ProcID]bool),
		restarted: make(map[failstop.ProcID]bool),
	}
	for _, e := range h {
		switch {
		case e.Kind == model.KindCrash:
			f.crashed[e.Proc] = true
		case e.Kind == model.KindInternal && e.Tag == model.TagRestart:
			f.restarted[e.Proc] = true
		}
	}
	return f
}

// TestRestartStormCrossBackendFates: the restart-storm builtin drives the
// same crash/restart fates on the simulated and the live backend. Wall-clock
// scheduling makes live cycle counts timing-dependent, so agreement is on
// fates, not counts: the same set of processes plan-crashes, the same set
// restarts, every restart follows a crash (both histories validate), and
// both backends account restarts out of crashes consistently.
func TestRestartStormCrossBackendFates(t *testing.T) {
	const n, tt = 5, 2
	plan, err := failstop.BuiltinFaultPlan("restart-storm", n, tt)
	if err != nil {
		t.Fatal(err)
	}
	stormProcs := map[failstop.ProcID]bool{n: true, n - 1: true}

	opts := failstop.Options{
		N: n, T: tt, Seed: 11, MaxTime: 2000, Faults: &plan,
		Recovery: failstop.RecoveryDurable,
	}
	rep := failstop.NewCluster(opts).Run()
	if err := rep.History.Validate(); err != nil {
		t.Fatalf("sim history invalid: %v", err)
	}
	simFate := historyFate(rep.History)
	if rep.PlanCrashes == 0 || rep.Restarts == 0 {
		t.Fatalf("sim: PlanCrashes=%d Restarts=%d, want both > 0", rep.PlanCrashes, rep.Restarts)
	}
	if rep.Restarts != rep.Recovered {
		t.Errorf("sim: Restarts=%d but Recovered=%d; durable restarts must restore a snapshot",
			rep.Restarts, rep.Recovered)
	}

	lc := startLive(t, opts, fastLive)
	// One full storm cycle is RestartStormPeriod=400 ticks = 40ms at this
	// tick rate; 300ms of wall clock covers several cycles on both procs.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if lc.Metrics().Value("net_restarts_total") >= 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	lc.Stop()
	h := lc.History()
	if err := h.Validate(); err != nil {
		t.Fatalf("live history invalid: %v", err)
	}
	liveFate := historyFate(h)
	ms := lc.Metrics()
	planCrashes, restarts, recovered := ms.Value("net_plan_crashes_total"), ms.Value("net_restarts_total"), ms.Value("net_recovered_total")
	if planCrashes == 0 || restarts == 0 {
		t.Fatalf("live: planCrashes=%d restarts=%d, want both > 0", planCrashes, restarts)
	}
	if restarts != recovered {
		t.Errorf("live: restarts=%d but recovered=%d", restarts, recovered)
	}

	for _, f := range []struct {
		name string
		fate stormFate
	}{{"sim", simFate}, {"live", liveFate}} {
		for p := failstop.ProcID(1); p <= n; p++ {
			if f.fate.crashed[p] != stormProcs[p] {
				t.Errorf("%s: proc %d crashed=%v, want %v", f.name, p, f.fate.crashed[p], stormProcs[p])
			}
			if f.fate.restarted[p] != stormProcs[p] {
				t.Errorf("%s: proc %d restarted=%v, want %v", f.name, p, f.fate.restarted[p], stormProcs[p])
			}
		}
	}
}

// TestLiveStopReportsFailedDurableWrite: with Live.RecoveryDir, a
// crash-time snapshot that could not be written is what Stop returns, and a
// run whose snapshots all landed returns nil. The directory is replaced by a
// regular file once the cluster runs (a permission change would not stop
// root), so every later write fails.
func TestLiveStopReportsFailedDurableWrite(t *testing.T) {
	const n, tt = 5, 2
	plan, err := failstop.BuiltinFaultPlan("restart-storm", n, tt)
	if err != nil {
		t.Fatal(err)
	}
	opts := failstop.Options{N: n, T: tt, Seed: 11, Faults: &plan, Recovery: failstop.RecoveryDurable}
	for _, sabotage := range []bool{false, true} {
		dir := filepath.Join(t.TempDir(), "snapshots")
		live := fastLive
		live.RecoveryDir = dir
		lc := startLive(t, opts, live)
		if sabotage {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		seen := lc.Metrics().Value("net_plan_crashes_total")
		deadline := time.Now().Add(2 * time.Second)
		for lc.Metrics().Value("net_plan_crashes_total") == seen && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		crashed := lc.Metrics().Value("net_plan_crashes_total") > seen
		err := lc.Stop()
		switch {
		case !crashed:
			t.Fatalf("sabotage=%v: no plan crash within the deadline", sabotage)
		case sabotage && err == nil:
			t.Error("Stop returned nil although the recovery directory was gone when a process crashed")
		case !sabotage && err != nil:
			t.Errorf("Stop = %v with the recovery directory intact", err)
		}
	}
}
