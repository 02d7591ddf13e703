package model_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/sim"
	"failstop/internal/sweep"
)

// benchLatencies is the latency half of bench/simstats.go's simStats.add,
// kept here as it stands there: detect holds, per (i, j) pair that executed
// both, the ticks from internal suspect(i, j) to failed_i(j); detectAll, per
// genuinely crashed j that every live process of 1..n detected, the ticks
// from crash_j to the last failed(j).
func benchLatencies(h model.History, n int) (detect, detectAll []int64) {
	w := n + 1
	suspectAt, failedAt, crashAt := make([]int64, w*w), make([]int64, w*w), make([]int64, w)
	for i := range suspectAt {
		suspectAt[i], failedAt[i] = -1, -1
	}
	for i := range crashAt {
		crashAt[i] = -1
	}
	for _, e := range h {
		switch e.Kind {
		case model.KindCrash:
			crashAt[e.Proc] = e.Time
		case model.KindInternal:
			switch e.Tag {
			case model.TagSuspect:
				if k := int(e.Proc)*w + int(e.Target); suspectAt[k] < 0 {
					suspectAt[k] = e.Time
				}
			case model.TagRestart:
				crashAt[e.Proc] = -1
			}
		case model.KindFailed:
			k := int(e.Proc)*w + int(e.Target)
			failedAt[k] = e.Time
			if suspectAt[k] >= 0 {
				detect = append(detect, e.Time-suspectAt[k])
			}
		}
	}
	for j := 1; j <= n; j++ {
		if crashAt[j] < 0 {
			continue
		}
		last, all := int64(-1), true
		for i := 1; i <= n; i++ {
			if crashAt[i] >= 0 {
				continue
			}
			if at := failedAt[i*w+j]; at < 0 {
				all = false
			} else if at > last {
				last = at
			}
		}
		if all && last >= crashAt[j] {
			detectAll = append(detectAll, last-crashAt[j])
		}
	}
	return detect, detectAll
}

// run records one §5 run of n processes under a builtin sweep schedule.
func run(t *testing.T, schedule string, n, tt int, seed int64) model.History {
	t.Helper()
	sched, ok := sweep.Builtin(schedule)
	if !ok {
		t.Fatalf("no builtin schedule %q", schedule)
	}
	nt := sweep.NT{N: n, T: tt}
	cfg := sim.Config{N: n, Seed: seed}
	if sched.Delay != nil {
		cfg.Delay = sched.Delay(nt, seed)
	}
	c := cluster.New(cluster.Options{Sim: cfg, Det: core.Config{N: n, T: tt, Protocol: core.SimulatedFailStop}})
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
		t.Fatalf("%s n=%d seed=%d did not drain", schedule, n, seed)
	}
	return res.History
}

// On recorded runs of the detector under the crash and false-suspicion
// schedules, Latencies is the literal definitions' row for row, and its Pair
// and All measures are the benchmark's detect and detectAll sample for
// sample — Pair in history order, All in the order of the crashed process.
func TestLatenciesOnSimulatedRuns(t *testing.T) {
	pairs, alls := 0, 0
	for _, schedule := range []string{"crash", "false-suspicion"} {
		for _, nt := range [][2]int{{5, 1}, {8, 2}, {12, 3}, {20, 3}} {
			for seed := int64(1); seed <= 5; seed++ {
				name := fmt.Sprintf("%s n=%d t=%d seed=%d", schedule, nt[0], nt[1], seed)
				h := run(t, schedule, nt[0], nt[1], seed)
				rows := model.Latencies(h, core.TagSusp)
				if want := model.LiteralLatencies(h, core.TagSusp); !reflect.DeepEqual(rows, want) {
					t.Fatalf("%s: Latencies\n got %+v\nwant %+v", name, rows, want)
				}
				var pair, all []int64
				for _, l := range rows {
					if l.Pair >= 0 {
						pair = append(pair, l.Pair)
					}
				}
				slices.SortStableFunc(rows, func(a, b model.Latency) int { return int(a.Detected - b.Detected) })
				for _, l := range rows {
					if l.All >= 0 {
						all = append(all, l.All)
					}
				}
				detect, detectAll := benchLatencies(h, nt[0])
				if !slices.Equal(pair, detect) || !slices.Equal(all, detectAll) {
					t.Errorf("%s: Pair %v, All %v; the benchmark reads %v, %v", name, pair, all, detect, detectAll)
				}
				pairs, alls = pairs+len(pair), alls+len(all)
			}
		}
	}
	t.Logf("%d Pair and %d All samples", pairs, alls)
	if pairs == 0 || alls == 0 {
		t.Errorf("%d Pair and %d All samples: the runs miss a measure", pairs, alls)
	}
}
