// Micro-benchmarks comparing the serial baseline (Workers: 1) against the
// parallel worker pool on a fixed adversarial grid. Each scenario run is an
// independent deterministic simulation, so the sweep parallelizes cleanly;
// on a machine with 4+ cores the parallel sweep should beat the serial one
// by well over 2×.
//
// Run with: go test ./internal/sweep -bench=Sweep -benchmem
package sweep

import (
	"runtime"
	"sync"
	"testing"
)

// benchGrid is the workload both benchmarks run: 4 (n, t) cells × 2
// schedules × 8 seeds = 64 full protocol simulations per iteration, all
// checked.
func benchGrid() Spec {
	falseSusp, _ := Builtin("false-suspicion")
	crash, _ := Builtin("crash")
	return Spec{
		Grid:      []NT{{8, 2}, {10, 3}, {12, 3}, {15, 3}},
		Schedules: []Schedule{falseSusp, crash},
		Seeds:     SeedRange{Count: 8},
		Check:     true,
	}
}

func benchSweep(b *testing.B, workers int) {
	spec := benchGrid()
	runs := spec.Runs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Runs != runs {
			b.Fatalf("runs = %d, want %d", rep.Runs, runs)
		}
	}
	b.ReportMetric(float64(runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkSweepSerial is the baseline: the same grid on a single worker.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepThroughput is the headline scale-out number: the bench
// grid through the streaming engine on a GOMAXPROCS-sized pool, reported
// as runs/s under the name CI tracks in BENCH_scale.json.
func BenchmarkSweepThroughput(b *testing.B) { benchSweep(b, 0) }

// runViaChannel executes the spec the way the engine did before streaming
// accumulation: every worker sends each run's record over one channel to a
// single-goroutine accumulator loop. Kept test-only, as the baseline that
// pins the streaming refactor's win in-repo.
func runViaChannel(spec Spec, workers int) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cells := spec.cells()

	type job struct {
		cellIdx int
		seed    int64
	}
	jobs := make(chan job, workers)
	records := make(chan runRecord, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				records <- execute(spec, cells[j.cellIdx], j.cellIdx, j.seed)
			}
		}()
	}
	go func() {
		spec.forEachJob(len(cells), func(cellIdx int, seed int64) {
			jobs <- job{cellIdx: cellIdx, seed: seed}
		})
		close(jobs)
		wg.Wait()
		close(records)
	}()

	acc := newAccumulators(cells)
	for rec := range records {
		acc[rec.cellIdx].add(rec)
	}
	rep := &Report{Shard: spec.Shard, Workers: workers}
	for _, a := range acc {
		rep.Cells = append(rep.Cells, a.result())
		rep.Runs += a.runs
	}
	return rep, nil
}

func benchAccumulate(b *testing.B, run func(Spec, int) (*Report, error)) {
	spec := benchGrid()
	runs := spec.Runs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := run(spec, 0)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Runs != runs {
			b.Fatalf("runs = %d, want %d", rep.Runs, runs)
		}
	}
	b.ReportMetric(float64(runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
}

// BenchmarkAccumulateStreaming and BenchmarkAccumulateChannel compare the
// two aggregation strategies on identical grids and pool sizes: per-worker
// accumulator arrays merged at the end (the engine) versus the retired
// one-channel single-consumer loop.
func BenchmarkAccumulateStreaming(b *testing.B) {
	benchAccumulate(b, func(s Spec, w int) (*Report, error) { return Run(s, Options{Workers: w}) })
}

func BenchmarkAccumulateChannel(b *testing.B) {
	benchAccumulate(b, runViaChannel)
}

// TestChannelBaselineMatchesStreaming keeps the benchmark baseline honest:
// both aggregation strategies must produce the identical report, or the
// comparison measures different work.
func TestChannelBaselineMatchesStreaming(b *testing.T) {
	spec := benchGrid()
	spec.Seeds.Count = 3
	streamed, err := Run(spec, Options{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	channeled, err := runViaChannel(spec, 4)
	if err != nil {
		b.Fatal(err)
	}
	if streamed.String() != channeled.String() {
		b.Errorf("aggregation strategies disagree:\n--- streaming\n%s\n--- channel\n%s", streamed, channeled)
	}
}
