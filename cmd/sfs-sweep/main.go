// Command sfs-sweep runs a parallel scenario sweep: a declarative grid of
// (n, t) cells × protocol variants × fault schedules × seeds, executed on a
// worker pool, with every recorded history piped through the property
// checker and aggregated into per-cell verdict tables.
//
// Usage:
//
//	sfs-sweep                                     # default adversarial grid
//	sfs-sweep -grid 10:3,12:3,15:4 -seeds 250     # 1000+ scenarios
//	sfs-sweep -schedules mixed -protocols sfs,cheap
//	sfs-sweep -q-delta -1,0 -schedules park-ring  # quorum lower-bound probe
//	sfs-sweep --plan split-brain                  # network-adversary grid
//	sfs-sweep --plan flaky-quorum,healing-partition -seeds 100
//	sfs-sweep -plan-file examples/plans/rolling-blackout.json -grid 5:2
//	sfs-sweep --plan healing-partition -reliable both -max-time 3000
//	sfs-sweep --plan restart-storm -recovery all -max-time 3000
//	sfs-sweep --plan byzantine-minority -byz both -max-time 3000
//	sfs-sweep --plan flaky-quorum -heartbeat 25 -hb-timeout 80 -max-time 5000
//	sfs-sweep -topo gossip:8,hier:4x8 -grid 64:5          # sparse-topology axis
//	sfs-sweep -list-schedules                     # built-in fault schedules
//	sfs-sweep -list-plans                         # built-in fault plans
//
// Scale-out: -shard i/k runs one deterministic 1/k slice of the grid and
// -json writes the report machine-readably, so k processes (or CI jobs, or
// machines) can split one grid; -merge recombines their reports into
// exactly the unsharded report:
//
//	sfs-sweep -grid 10:3 -seeds 500 -shard 0/2 -json a.json
//	sfs-sweep -grid 10:3 -seeds 500 -shard 1/2 -json b.json
//	sfs-sweep -merge a.json b.json                # == the unsharded report
//
// Profiling: -cpuprofile/-memprofile write pprof profiles of the sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"failstop/internal/byz"
	"failstop/internal/core"
	"failstop/internal/netadv"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/sweep"
	"failstop/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("sfs-sweep", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		grid      = fs.String("grid", "10:3", "comma-separated n:t cells, e.g. 10:3,12:3,15:4")
		seeds     = fs.Int("seeds", 25, "seeds per cell")
		seedStart = fs.Int64("seed-start", 0, "first seed")
		protocols = fs.String("protocols", "sfs", "comma-separated protocols: sfs, cheap, unilateral")
		schedules = fs.String("schedules", "false-suspicion,crash,mutual", "comma-separated built-in fault schedules")
		plans     = fs.String("plan", "", "comma-separated built-in network fault plans (empty: fault-free network)")
		topos     = fs.String("topo", "", "comma-separated topology axis: full, gossip:F[@SEED], hier:RxK (empty: full mesh only)")
		planFiles = fs.String("plan-file", "", "comma-separated JSON fault-plan files to add to the plan axis (see examples/plans)")
		reliab    = fs.String("reliable", "off", "reliable-delivery axis: off, on, or both (grid every cell with and without the layer)")
		recov     = fs.String("recovery", "off", "crash-recovery axis: off, amnesia, durable, or all (grid every cell over all three modes)")
		byzMode   = fs.String("byz", "off", "Byzantine validation-interposer axis: off, on, or both (grid every cell with and without misbehavior masking)")
		maxRetry  = fs.Int("max-retries", 0, "retransmissions per frame before a reliable link gives up (0: retry forever, needs -max-time)")
		hbEvery   = fs.Int64("heartbeat", 0, "heartbeat interval in ticks (0: no fd layer); adds a false-suspicion column, needs -max-time")
		hbTimeout = fs.Int64("hb-timeout", 0, "heartbeat suspicion timeout in ticks (with -heartbeat)")
		qDeltas   = fs.String("q-delta", "0", "comma-separated quorum-size offsets from the Theorem 7 minimum")
		minDelay  = fs.Int64("min-delay", 0, "minimum uniform message delay (0: simulator default)")
		maxDelay  = fs.Int64("max-delay", 0, "maximum uniform message delay (0: simulator default)")
		maxTime   = fs.Int64("max-time", 0, "virtual-time horizon per run (0: run to quiescence)")
		maxEvents = fs.Int("max-events", 0, "event cap per run (0: simulator default)")
		workers   = fs.Int("workers", 0, "worker pool size (0: GOMAXPROCS, 1: serial)")
		check     = fs.Bool("check", true, "check every quiescent history against the paper's properties")
		shard     = fs.String("shard", "", "run one shard i/k of the (cell, seed) stream, e.g. -shard 0/4")
		jsonOut   = fs.String("json", "", "also write the report as JSON to this file (\"-\": stdout, replacing the text report)")
		csvOut    = fs.String("csv", "", "also write the report as CSV to this file (\"-\": stdout), one row per cell, for charting")
		progress  = fs.Bool("progress", false, "print per-worker progress and throughput to stderr while the sweep runs")
		timeline  = fs.Bool("timeline", false, "sample per-tick timeseries in every run and aggregate per-run peaks into the report")
		tlEvery   = fs.Int64("timeline-every", 1, "timeline sampling cadence in ticks with -timeline")
		merge     = fs.Bool("merge", false, "merge shard reports (the JSON files given as arguments) instead of sweeping")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
		list      = fs.Bool("list-schedules", false, "list built-in fault schedules and exit")
		listPlans = fs.Bool("list-plans", false, "list built-in network fault plans and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, name := range sweep.BuiltinNames() {
			fmt.Fprintln(out, name)
		}
		return 0
	}
	if *listPlans {
		for _, name := range netadv.BuiltinNames() {
			fmt.Fprintln(out, name)
		}
		return 0
	}
	if *merge {
		return runMerge(fs.Args(), *jsonOut, *csvOut, out)
	}
	// Spec defaulting reads a zero count as "unset" and would run one seed.
	if *seeds < 1 {
		fmt.Fprintf(out, "sfs-sweep: -seeds %d: need at least 1 seed per cell\n", *seeds)
		return 2
	}

	spec := sweep.Spec{
		Seeds:            sweep.SeedRange{Start: *seedStart, Count: *seeds},
		MinDelay:         *minDelay,
		MaxDelay:         *maxDelay,
		MaxTime:          *maxTime,
		MaxEvents:        *maxEvents,
		Check:            *check,
		HeartbeatEvery:   *hbEvery,
		HeartbeatTimeout: *hbTimeout,
		Timeline:         *timeline,
		TimelineEvery:    *tlEvery,
	}
	var err error
	if spec.Reliable, err = parseReliable(*reliab, *maxRetry); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Recovery, err = parseRecovery(*recov); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Byzantine, err = parseByzantine(*byzMode); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Grid, err = parseGrid(*grid); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Protocols, err = parseProtocols(*protocols); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Schedules, err = parseSchedules(*schedules); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Plans, err = parsePlans(*plans); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Topologies, err = parseTopos(*topos); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	filePlans, err := parsePlanFiles(*planFiles)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	spec.Plans = append(spec.Plans, filePlans...)
	if spec.QuorumDeltas, err = parseInts(*qDeltas); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if spec.Shard, err = parseShard(*shard); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	opts := sweep.Options{Workers: *workers}
	if *progress {
		// Progress goes to stderr, never to out: the text/JSON/CSV reports
		// must stay byte-identical with and without -progress.
		opts.Progress = os.Stderr
	}
	rep, err := sweep.Run(spec, opts)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
	}
	return emit(rep, *jsonOut, *csvOut, out)
}

// emit writes the report: text to out, and — when jsonPath or csvPath is
// set — the machine-readable forms to those files. A path of "-" streams
// that form to out instead, replacing the text report (at most one of the
// two may claim stdout). Every file is written before anything goes to out.
func emit(rep *sweep.Report, jsonPath, csvPath string, out io.Writer) int {
	if jsonPath == "-" && csvPath == "-" {
		fmt.Fprintln(out, "sfs-sweep: -json - and -csv - both claim stdout; write at least one to a file")
		return 2
	}
	forms := []struct {
		path  string
		write func(io.Writer) error
	}{{csvPath, rep.WriteCSV}, {jsonPath, rep.WriteJSON}}
	for _, f := range forms {
		if f.path != "" && f.path != "-" {
			if code := writeFile(f.path, f.write, out); code != 0 {
				return code
			}
		}
	}
	for _, f := range forms {
		if f.path == "-" {
			if err := f.write(out); err != nil {
				fmt.Fprintln(out, err)
				return 2
			}
			return 0
		}
	}
	fmt.Fprintln(out, rep)
	return 0
}

// writeFile creates path and streams one report form into it.
func writeFile(path string, write func(io.Writer) error, out io.Writer) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	if err := write(f); err != nil {
		f.Close()
		fmt.Fprintln(out, err)
		return 2
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	return 0
}

// runMerge recombines shard reports written with -json into the report the
// unsharded sweep would have produced, rendering it like a normal sweep.
func runMerge(files []string, jsonPath, csvPath string, out io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(out, "sfs-sweep -merge: no report files given")
		return 2
	}
	var reports []*sweep.Report
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		rep, err := sweep.ReadJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(out, "%s: %v\n", name, err)
			return 2
		}
		reports = append(reports, rep)
	}
	merged, err := sweep.Merge(reports...)
	if err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	return emit(merged, jsonPath, csvPath, out)
}

// parseShard parses "i/k" into a Shard; "" means unsharded.
func parseShard(s string) (sweep.Shard, error) {
	if strings.TrimSpace(s) == "" {
		return sweep.Shard{}, nil
	}
	i, k, ok := strings.Cut(s, "/")
	if !ok {
		return sweep.Shard{}, fmt.Errorf("bad -shard %q (want i/k, e.g. 0/4)", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(i))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(k))
	if err1 != nil || err2 != nil {
		return sweep.Shard{}, fmt.Errorf("bad -shard %q (want i/k, e.g. 0/4)", s)
	}
	// Reject out-of-range values here, before Spec defaulting rewrites a
	// typo like 0/0 into a full unsharded run (which would then merge
	// into doubled counts).
	if cnt < 1 || idx < 0 || idx >= cnt {
		return sweep.Shard{}, fmt.Errorf("bad -shard %q: index must be in [0, count), count at least 1", s)
	}
	return sweep.Shard{Index: idx, Count: cnt}, nil
}

func parseGrid(s string) ([]sweep.NT, error) {
	var out []sweep.NT
	for _, cell := range strings.Split(s, ",") {
		cell = strings.TrimSpace(cell)
		n, t, ok := strings.Cut(cell, ":")
		if !ok {
			return nil, fmt.Errorf("bad grid cell %q (want n:t)", cell)
		}
		ni, err1 := strconv.Atoi(n)
		ti, err2 := strconv.Atoi(t)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad grid cell %q (want n:t)", cell)
		}
		out = append(out, sweep.NT{N: ni, T: ti})
	}
	return out, nil
}

func parseProtocols(s string) ([]core.Protocol, error) {
	var out []core.Protocol
	for _, name := range strings.Split(s, ",") {
		p, err := core.ParseProtocol(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func parseSchedules(s string) ([]sweep.Schedule, error) {
	var out []sweep.Schedule
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		sched, ok := sweep.Builtin(name)
		if !ok {
			return nil, fmt.Errorf("unknown schedule %q (have %s)", name, strings.Join(sweep.BuiltinNames(), ", "))
		}
		out = append(out, sched)
	}
	return out, nil
}

func parsePlans(s string) ([]netadv.Generator, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []netadv.Generator
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		g, ok := netadv.Builtin(name)
		if !ok {
			return nil, fmt.Errorf("unknown plan %q (have %s)", name, strings.Join(netadv.BuiltinNames(), ", "))
		}
		out = append(out, g)
	}
	return out, nil
}

// parsePlanFiles loads user-authored fault plans, each wrapped as a fixed
// generator on the plan axis. Structural validation against every grid
// point happens in sweep.Spec.Validate, so a plan that does not fit some
// cell fails the sweep up front with a clear error.
func parsePlanFiles(s string) ([]netadv.Generator, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []netadv.Generator
	for _, path := range strings.Split(s, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			return nil, fmt.Errorf("empty entry in -plan-file %q", s)
		}
		plan, err := netadv.ReadPlanFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, netadv.Fixed(plan))
	}
	return out, nil
}

// parseTopos parses the comma-separated -topo axis. Feasibility against
// every grid point (fanout vs. n, regions×racks vs. n) is checked in
// sweep.Spec.Validate, alongside the duplicate-topology guard.
func parseTopos(s string) ([]topo.Spec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []topo.Spec
	for _, name := range strings.Split(s, ",") {
		sp, err := topo.ParseSpec(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}

func parseRecovery(mode string) ([]recovery.Mode, error) {
	switch strings.TrimSpace(strings.ToLower(mode)) {
	case "", "off":
		return nil, nil
	case "all":
		return []recovery.Mode{recovery.Off, recovery.Amnesia, recovery.Durable}, nil
	}
	m, err := recovery.ParseMode(strings.TrimSpace(strings.ToLower(mode)))
	if err != nil {
		return nil, fmt.Errorf("bad -recovery %q (want off, amnesia, durable, or all)", mode)
	}
	return []recovery.Mode{m}, nil
}

func parseReliable(mode string, maxRetries int) ([]reliable.Options, error) {
	on := reliable.Options{Enabled: true, MaxRetries: maxRetries}
	switch strings.TrimSpace(strings.ToLower(mode)) {
	case "off", "":
		return nil, nil
	case "on":
		return []reliable.Options{on}, nil
	case "both":
		return []reliable.Options{{}, on}, nil
	}
	return nil, fmt.Errorf("bad -reliable %q (want off, on, or both)", mode)
}

func parseByzantine(mode string) ([]byz.Options, error) {
	on := byz.Options{Enabled: true}
	switch strings.TrimSpace(strings.ToLower(mode)) {
	case "off", "":
		return nil, nil
	case "on":
		return []byz.Options{on}, nil
	case "both":
		return []byz.Options{{}, on}, nil
	}
	return nil, fmt.Errorf("bad -byz %q (want off, on, or both)", mode)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}
