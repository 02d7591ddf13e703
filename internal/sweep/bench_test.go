// Micro-benchmarks comparing the serial baseline (Workers: 1) against the
// parallel worker pool on a fixed adversarial grid. Each scenario run is an
// independent deterministic simulation, so the sweep parallelizes cleanly;
// on a machine with 4+ cores the parallel sweep should beat the serial one
// by well over 2×.
//
// Run with: go test ./internal/sweep -bench=Sweep -benchmem
package sweep

import "testing"

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
// as runs/s.
func BenchmarkSweepThroughput(b *testing.B) { benchSweep(b, 0) }
