package experiments

import (
	"fmt"

	"failstop/internal/netadv"
	"failstop/internal/stats"
	"failstop/internal/sweep"
)

// E14 quantifies Theorem 1's dilemma as a surface rather than a single
// point: the false-suspicion rate of a fixed-timeout heartbeat detector as
// a function of (drop probability, timeout). Every finite timeout
// eventually accuses the living under loss — E14 measures how fast. Each
// (timeout, drop) cell runs the sweep engine's quiet schedule (no crashes,
// so *every* suspicion is false) over a seed batch; the observability
// plane's false-suspicion metric counts accusing runs.
//
// Expected shape: at drop 0 delays are bounded well under every timeout,
// so no false suspicions at all; for a fixed timeout the rate climbs with
// the drop probability (more lost heartbeats, longer apparent silences);
// for a fixed drop it falls as the timeout grows (more consecutive losses
// needed to look dead). examples/e14 renders the same surface (E14Surface)
// as CSV and a chart.
func E14() Result {
	timeouts, drops, surface, err := E14Surface()
	if err != nil {
		return Result{Notes: []string{"sweep failed: " + err.Error()}}
	}
	// rate[timeout][drop] = accusing runs / runs.
	rates := map[int64]map[float64]int{}
	tbl := stats.NewTable("hb timeout", "drop", "false-suspicion", "heartbeats dropped")
	for i, to := range timeouts {
		rates[to] = map[float64]int{}
		for j, p := range drops {
			cell := surface[i][j]
			fs := cell.Metrics["false-suspicion"]
			rates[to][p] = fs
			tbl.Row(to, fmt.Sprintf("%.2f", p), fmt.Sprintf("%d/%d", fs, cell.Runs), cell.Obs["sim_dropped_total"])
		}
	}

	ok := true
	for _, to := range timeouts {
		// Loss-free networks with delays far under the timeout never accuse.
		ok = ok && rates[to][0] == 0
		// The rate climbs (weakly) with the drop probability.
		ok = ok && rates[to][0] <= rates[to][0.15] && rates[to][0.15] <= rates[to][0.35]
	}
	// The rate falls (weakly) as the timeout grows, at every lossy drop.
	for _, p := range []float64{0.15, 0.35} {
		ok = ok && rates[40][p] >= rates[80][p] && rates[80][p] >= rates[160][p]
	}
	// The dilemma has teeth: the tightest timeout under the heaviest loss
	// accuses on every seed.
	ok = ok && rates[40][0.35] == e14Seeds

	return Result{
		Table: tbl.String(),
		OK:    ok,
		Notes: []string{
			fmt.Sprintf("quiet schedule (no crashes), so every suspicion is false; n=%d t=%d, heartbeat interval 25, %d seeds per cell", e14N, e14T, e14Seeds),
			"drop 0 never accuses: delays are bounded (1..3 ticks) far under every timeout",
			"rate climbs with drop probability and falls with timeout — no finite timeout is safe under loss, only slower to err",
			"examples/e14 exports this surface as CSV (committed artifact + ASCII chart); sfs-sweep -csv does the same for ad-hoc grids",
		},
	}
}

// E14's grid: n, t and the seeds of every cell.
const (
	e14N, e14T = 5, 2
	e14Seeds   = 12
)

// E14Surface runs E14's surface: one sweep of the quiet schedule per
// heartbeat timeout, over the drop ladder. surface[i][j] is the cell of
// timeouts[i] and drops[j].
func E14Surface() (timeouts []int64, drops []float64, surface [][]sweep.CellResult, err error) {
	timeouts, drops = []int64{40, 80, 160}, []float64{0, 0.15, 0.35}
	quiet, _ := sweep.Builtin("quiet")
	gens := make([]netadv.Generator, 0, len(drops))
	for _, p := range drops {
		gens = append(gens, dropPlan(p))
	}
	for _, to := range timeouts {
		rep, err := sweep.Run(sweep.Spec{
			Grid:             []sweep.NT{{N: e14N, T: e14T}},
			Schedules:        []sweep.Schedule{quiet},
			Plans:            gens,
			Seeds:            sweep.SeedRange{Start: 1, Count: e14Seeds},
			MinDelay:         1,
			MaxDelay:         3,
			MaxTime:          2000,
			HeartbeatEvery:   25,
			HeartbeatTimeout: to,
		}, sweep.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		surface = append(surface, rep.Cells)
	}
	return timeouts, drops, surface, nil
}
