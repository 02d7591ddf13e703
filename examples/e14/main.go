// E14 chart data: the false-suspicion surface of a fixed-timeout heartbeat
// detector under message loss — rate vs. drop probability vs. timeout
// (Theorem 1's dilemma, quantified by experiment E14).
//
// The program computes E14's surface (experiments.E14Surface), prints it
// as CSV (the committed copy lives in e14.csv; the test asserts the two
// stay byte-identical), then renders it as an ASCII chart.
// For ad-hoc grids, `sfs-sweep -csv` exports the same per-cell columns —
// metric_false-suspicion, obs_*, ts_* — straight from the command line.
//
// Run with: go run ./examples/e14
package main

import (
	"fmt"
	"strings"

	"failstop/internal/experiments"
)

func main() {
	timeouts, drops, surface, err := experiments.E14Surface()
	if err != nil {
		fmt.Println("sweep failed:", err)
		return
	}

	fmt.Println("hb_timeout,drop,false_suspicion_runs,runs,rate")
	for i, to := range timeouts {
		for j, p := range drops {
			fs, runs := surface[i][j].Metrics["false-suspicion"], surface[i][j].Runs
			fmt.Printf("%d,%.2f,%d,%d,%.4f\n", to, p, fs, runs, float64(fs)/float64(runs))
		}
	}

	fmt.Println()
	fmt.Println("false-suspicion rate (each # = one accusing seed of 12):")
	for i, to := range timeouts {
		for j, p := range drops {
			fs := surface[i][j].Metrics["false-suspicion"]
			fmt.Printf("  timeout %3d drop %.2f |%-12s| %2d/12\n", to, p, strings.Repeat("#", fs), fs)
		}
	}
	fmt.Println()
	fmt.Println("every finite timeout accuses the living under loss; raising it only trades detection speed for error rate (Theorem 1)")
}
