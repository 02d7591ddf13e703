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
	"sort"
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
		spec       sweep.Spec
		filePlans  []netadv.Generator // follow the builtin plans on the plan axis
		maxRetries int
		workers    int
	)
	listFlag(fs, &spec.Grid, "grid", "10:3", "comma-separated n:t cells, e.g. 10:3,12:3,15:4", parseNT)
	fs.IntVar(&spec.Seeds.Count, "seeds", 25, "seeds per cell")
	fs.Int64Var(&spec.Seeds.Start, "seed-start", 0, "first seed")
	listFlag(fs, &spec.Protocols, "protocols", "sfs", "comma-separated protocols: sfs, cheap, unilateral", core.ParseProtocol)
	listFlag(fs, &spec.Schedules, "schedules", "false-suspicion,crash,mutual", "comma-separated built-in fault schedules", builtinSchedule)
	listFlag(fs, &spec.Plans, "plan", "", "comma-separated built-in network fault plans (empty: fault-free network)", builtinPlan)
	listFlag(fs, &spec.Topologies, "topo", "", "comma-separated topology axis: full, gossip:F[@SEED], hier:RxK (empty: full mesh only)", topo.ParseSpec)
	listFlag(fs, &filePlans, "plan-file", "", "comma-separated JSON fault-plan files to add to the plan axis (see examples/plans)", planFile)
	modeFlag(fs, &spec.Reliable, "reliable", "reliable-delivery axis: off, on, or both (grid every cell with and without the layer)",
		map[string][]reliable.Options{"off": nil, "on": {{Enabled: true}}, "both": {{}, {Enabled: true}}})
	recoveryModes, recoveryNames := map[string][]recovery.Mode{"all": recovery.Modes()}, []string(nil)
	for _, m := range recovery.Modes() {
		recoveryModes[m.String()] = []recovery.Mode{m}
		recoveryNames = append(recoveryNames, m.String())
	}
	modeFlag(fs, &spec.Recovery, "recovery", "crash-recovery axis: "+strings.Join(recoveryNames, ", ")+", or all (grid every cell over every mode)",
		recoveryModes)
	modeFlag(fs, &spec.Byzantine, "byz", "Byzantine validation-interposer axis: off, on, or both (grid every cell with and without misbehavior masking)",
		map[string][]byz.Options{"off": nil, "on": {{Enabled: true}}, "both": {{}, {Enabled: true}}})
	fs.IntVar(&maxRetries, "max-retries", 0, "retransmissions per frame before a reliable link gives up (0: retry forever, needs -max-time)")
	fs.Int64Var(&spec.HeartbeatEvery, "heartbeat", 0, "heartbeat interval in ticks (0: no fd layer); adds a false-suspicion column, needs -max-time")
	fs.Int64Var(&spec.HeartbeatTimeout, "hb-timeout", 0, "heartbeat suspicion timeout in ticks (with -heartbeat)")
	listFlag(fs, &spec.QuorumDeltas, "q-delta", "0", "comma-separated quorum-size offsets from the Theorem 7 minimum (sfs over the complete graph only; the quorum must stay at least 1)", strconv.Atoi)
	fs.Int64Var(&spec.MinDelay, "min-delay", 0, "minimum uniform message delay (0: simulator default)")
	fs.Int64Var(&spec.MaxDelay, "max-delay", 0, "maximum uniform message delay (0: simulator default)")
	fs.Int64Var(&spec.MaxTime, "max-time", 0, "virtual-time horizon per run (0: run to quiescence)")
	fs.IntVar(&spec.MaxEvents, "max-events", 0, "event cap per run (0: simulator default)")
	fs.IntVar(&workers, "workers", 0, "worker pool size (0: GOMAXPROCS, 1: serial)")
	fs.BoolVar(&spec.Check, "check", true, "check every quiescent history against the paper's properties")
	fs.Func("shard", "run one shard i/k of the (cell, seed) stream, e.g. -shard 0/4", func(s string) (err error) {
		spec.Shard, err = parseShard(s)
		return err
	})
	fs.BoolVar(&spec.Timeline, "timeline", false, "sample per-tick timeseries in every run and aggregate per-run peaks into the report")
	fs.Int64Var(&spec.TimelineEvery, "timeline-every", 1, "timeline sampling cadence in ticks with -timeline")
	var (
		jsonOut   = fs.String("json", "", "also write the report as JSON to this file (\"-\": stdout, replacing the text report)")
		csvOut    = fs.String("csv", "", "also write the report as CSV to this file (\"-\": stdout), one row per cell, for charting")
		progress  = fs.Bool("progress", false, "print per-worker progress and throughput to stderr while the sweep runs")
		merge     = fs.Bool("merge", false, "merge shard reports (the JSON files given as arguments) instead of sweeping")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
		list      = fs.Bool("list-schedules", false, "list built-in fault schedules and exit")
		listPlans = fs.Bool("list-plans", false, "list built-in network fault plans and exit")
	)
	fs.Usage = func() {} // a bad flag is refused in the one line flag writes; -h prints the usage
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			fmt.Fprintf(fs.Output(), "Usage of %s:\n", fs.Name())
			fs.PrintDefaults()
			return 0
		}
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
	if spec.Seeds.Count < 1 {
		fmt.Fprintf(out, "sfs-sweep: -seeds %d: need at least 1 seed per cell\n", spec.Seeds.Count)
		return 2
	}
	spec.Plans = append(spec.Plans, filePlans...)
	for i := range spec.Reliable {
		if spec.Reliable[i].Enabled {
			spec.Reliable[i].MaxRetries = maxRetries
		}
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

	opts := sweep.Options{Workers: workers}
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
		return sweep.Shard{}, fmt.Errorf("bad shard %q (want i/k, e.g. 0/4)", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(i))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(k))
	if err1 != nil || err2 != nil {
		return sweep.Shard{}, fmt.Errorf("bad shard %q (want i/k, e.g. 0/4)", s)
	}
	// Reject out-of-range values here, before Spec defaulting rewrites a
	// typo like 0/0 into a full unsharded run (which would then merge
	// into doubled counts).
	if cnt < 1 || idx < 0 || idx >= cnt {
		return sweep.Shard{}, fmt.Errorf("bad shard %q: index must be in [0, count), count at least 1", s)
	}
	return sweep.Shard{Index: idx, Count: cnt}, nil
}

// listFlag declares -name, a comma-separated list whose entries parse reads,
// stored in *dst; the default is parsed the same way. A flag whose default
// is blank (an axis that is off unless asked for) also takes a blank value,
// as nil.
func listFlag[T any](fs *flag.FlagSet, dst *[]T, name, def, usage string, parse func(string) (T, error)) {
	set := func(s string) error {
		var list []T
		if def != "" || strings.TrimSpace(s) != "" {
			for _, entry := range strings.Split(s, ",") {
				v, err := parse(strings.TrimSpace(entry))
				if err != nil {
					return err
				}
				list = append(list, v)
			}
		}
		*dst = list
		return nil
	}
	if err := set(def); err != nil {
		panic(fmt.Sprintf("sfs-sweep: default of -%s: %v", name, err))
	}
	if def != "" {
		usage += fmt.Sprintf(" (default %q)", def)
	}
	fs.Func(name, usage, set)
}

// modeFlag declares -name, whose value names one of modes and stores that
// mode's axis entries in *dst. The default, "off", is the nil *dst starts as;
// a blank value is off too.
func modeFlag[T any](fs *flag.FlagSet, dst *[]T, name, usage string, modes map[string][]T) {
	fs.Func(name, usage+` (default "off")`, func(s string) error {
		mode := strings.ToLower(strings.TrimSpace(s))
		list, ok := modes[mode]
		if !ok && mode != "" {
			var want []string
			for m := range modes {
				want = append(want, m)
			}
			sort.Strings(want)
			return fmt.Errorf("unknown mode %q (want %s)", s, strings.Join(want, ", "))
		}
		*dst = list
		return nil
	})
}

// parseNT parses one n:t grid point.
func parseNT(s string) (sweep.NT, error) {
	n, t, ok := strings.Cut(s, ":")
	ni, err1 := strconv.Atoi(n)
	ti, err2 := strconv.Atoi(t)
	if !ok || err1 != nil || err2 != nil {
		return sweep.NT{}, fmt.Errorf("bad grid cell %q (want n:t)", s)
	}
	return sweep.NT{N: ni, T: ti}, nil
}

// builtinSchedule looks a fault schedule up by name.
func builtinSchedule(name string) (sweep.Schedule, error) {
	sched, ok := sweep.Builtin(name)
	if !ok {
		return sched, fmt.Errorf("unknown schedule %q (have %s)", name, strings.Join(sweep.BuiltinNames(), ", "))
	}
	return sched, nil
}

// builtinPlan looks a network fault plan up by name.
func builtinPlan(name string) (netadv.Generator, error) {
	g, ok := netadv.Builtin(name)
	if !ok {
		return g, fmt.Errorf("unknown plan %q (have %s)", name, strings.Join(netadv.BuiltinNames(), ", "))
	}
	return g, nil
}

// planFile loads a user-authored fault plan as a fixed generator on the plan
// axis. Whether it fits every grid point is sweep.Spec.Validate's to say.
func planFile(path string) (netadv.Generator, error) {
	plan, err := netadv.ReadPlanFile(path)
	return netadv.Fixed(plan), err
}
