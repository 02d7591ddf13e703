package sweep

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"failstop/internal/model"
	"failstop/internal/sim"
)

// TestObservedResultIsNotReleased: the engine releases a run's Result to the
// next run only when it alone saw it. An Observe hook may keep what it was
// shown: every history retained here must still read, after the whole sweep,
// as it did when the hook saw it — on one worker, where every later run
// draws from the same pool, and on several.
func TestObservedResultIsNotReleased(t *testing.T) {
	for _, workers := range []int{1, 4} {
		type kept struct {
			res     *sim.Result
			history model.History // a copy, taken inside the hook
		}
		var mu sync.Mutex
		var all []kept
		spec := benchGrid()
		spec.Observe = func(cell Cell, seed int64, out RunOutput) map[string]bool {
			mu.Lock()
			defer mu.Unlock()
			all = append(all, kept{out.Result, slices.Clone(out.Result.History)})
			return nil
		}
		if _, err := Run(spec, Options{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if len(all) != spec.Runs() {
			t.Fatalf("observed %d runs, want %d", len(all), spec.Runs())
		}
		for i, k := range all {
			if !slices.Equal(k.res.History, k.history) {
				t.Fatalf("workers=%d: the history of observed run %d changed after the hook returned: the engine released it", workers, i)
			}
		}
	}
}

// TestSweepCellAllocBudget pins what one run of the bench grid costs the
// allocator on one worker, at what it measures plus a tenth: 77 allocations
// and 10.7 KiB, none of it the simulator's bulk or the Result, which the run
// before handed over (110 KiB and 335 allocations when each run made its own;
// 78 while a retired bulk was boxed for a pool),
// 15 of it the checker's (262 and 37.7 KiB while the checker read a run six
// times over per-event clocks and per-process slices; 88 and 18.0 KiB while
// its scan walked a run twice), and one per detector
// plus two per round where each detector made four maps (171 and 28.1 KiB).
// What is left is the abstract history, the detectors' rounds and the Sim
// itself.
func TestSweepCellAllocBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: what a run retires, the next draws
	spec := benchGrid()
	sweep := func() {
		if _, err := Run(spec, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sweep() // warm up: the pools hold a bulk and a Result of the largest cell
	const sweeps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	runs := float64(sweeps * spec.Runs())
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	kib := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / runs
	t.Logf("%.1f allocations, %.1f KiB per run", allocs, kib)
	if allocs > 85 || kib > 11.8 {
		t.Errorf("a bench-grid run allocates %.0f times, %.1f KiB: over the 85 / 11.8 KiB budget", allocs, kib)
	}
}
