// Command sfs-sim runs one deterministic simulation of the simulated
// fail-stop protocol (or one of the paper's baselines) and reports the
// property verdicts, optionally writing the recorded trace to a file for
// offline checking with sfs-check.
//
// Usage:
//
//	sfs-sim -n 5 -t 2 -suspect 2:1@10 -o trace.json
//	sfs-sim -n 10 -t 3 -protocol cheap -suspect 1:2@5 -suspect 2:1@5 -v
//	sfs-sim -n 5 -t 2 -crash 1@5 -suspect 2:1@20 -heartbeat 0
//	sfs-sim -n 5 -t 2 -suspect 4:1@20 -plan split-brain   # network adversary
//	sfs-sim -n 64 -t 5 -topo gossip:8 -suspect 2:1@10     # sparse gossip overlay
//	sfs-sim -n 5 -t 2 -crash 1@15 -suspect 5:1@20 -plan healing-partition -reliable
//	sfs-sim -n 5 -t 2 -suspect 5:3@30 -plan byzantine-minority -byz   # forged traffic, masked
//	sfs-sim -n 5 -t 2 -suspect 2:1@100 -plan-file examples/plans/rolling-blackout.json
//	sfs-sim -n 5 -plan-file my-plan.json -validate-plan   # lint a plan file
//	sfs-sim -n 5 -t 2 -plan split-brain -dump-plan        # builtin -> plan file
//	sfs-sim -n 5 -t 2 -suspect 2:1@10 -o trace.json -spans        # v3 trace with lifecycle spans
//	sfs-sim -n 5 -t 2 -heartbeat 5 -timeout 25 -timeline tl.json  # per-tick timeseries
//
// Injection syntax: -suspect i:j@t (process i suspects j at tick t),
// -crash p@t (process p crashes at tick t); both repeatable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"failstop"
	"failstop/internal/core"
	"failstop/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

type injections struct {
	kind string // "suspect" or "crash"
	vals []string
}

func (in *injections) String() string { return strings.Join(in.vals, ",") }
func (in *injections) Set(s string) error {
	in.vals = append(in.vals, s)
	return nil
}

// scanAll is fmt.Sscanf over the whole of s. Sscanf alone ignores what follows
// its format: "2:1@10,4:3@20" read as 2:1@10.
func scanAll(s, format string, args ...any) error {
	var rest string
	if n, err := fmt.Sscanf(s, format+"%s", append(args, &rest)...); n < len(args) {
		return err
	} else if n > len(args) {
		return fmt.Errorf("unexpected %q after it", rest)
	}
	return nil
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("sfs-sim", flag.ContinueOnError)
	fs.SetOutput(out)
	opts := failstop.Options{Protocol: failstop.SFS}
	fs.IntVar(&opts.N, "n", 5, "number of processes")
	fs.IntVar(&opts.T, "t", 2, "maximum failures, including erroneous detections")
	fs.Func("protocol", `protocol: sfs, cheap, or unilateral (default "sfs")`, func(s string) (err error) {
		opts.Protocol, err = core.ParseProtocol(s)
		return err
	})
	fs.Int64Var(&opts.Seed, "seed", 1, "simulation seed")
	fs.Int64Var(&opts.MaxTime, "maxtime", 0, "virtual-time horizon (0 = run to quiescence)")
	fs.Int64Var(&opts.HeartbeatEvery, "heartbeat", 0, "heartbeat interval in ticks (0 = no fd layer)")
	fs.Int64Var(&opts.HeartbeatTimeout, "timeout", 0, "suspicion timeout in ticks (with -heartbeat)")
	fs.Func("topo", "cluster topology: full, gossip:F[@SEED], or hier:RxK (empty: full mesh)", func(s string) error {
		tp, err := failstop.ParseTopo(s)
		opts.Topology = &tp
		return err
	})
	fs.Func("recovery", `crash-recovery mode for plan-scheduled process faults: off, amnesia, or durable (default "off")`, func(s string) (err error) {
		opts.Recovery, err = failstop.ParseRecoveryMode(s)
		return err
	})
	fs.BoolVar(&opts.Reliable.Enabled, "reliable", false, "interpose the reliable-delivery layer (acks, retransmission, dedup, in-order release) under every process")
	fs.BoolVar(&opts.Byzantine.Enabled, "byz", false, "interpose the Byzantine validation layer (per-sender MACs, echo quorums, replay watermark) under every process; convictions are masked into crashes")
	fs.Int64Var(&opts.Reliable.RetryInterval, "retry-interval", 0, "initial retransmit interval in ticks with -reliable (0: layer default)")
	fs.IntVar(&opts.Reliable.MaxRetries, "max-retries", 0, "retransmissions per frame before the link gives up with -reliable (0: retry forever)")
	var (
		planName = fs.String("plan", "", "built-in network fault plan ("+strings.Join(failstop.FaultPlanNames(), ", ")+")")
		planFile = fs.String("plan-file", "", "load the network fault plan from this JSON file (see examples/plans; mutually exclusive with -plan)")
		lintPlan = fs.Bool("validate-plan", false, "validate the plan (-plan or -plan-file) against -n and exit without simulating")
		dumpPlan = fs.Bool("dump-plan", false, "print the plan (-plan or -plan-file) as plan-file JSON and exit without simulating")
		outPath  = fs.String("o", "", "write the recorded trace to this file (JSON lines)")
		spans    = fs.Bool("spans", false, "record message-lifecycle spans (written into the -o trace as format v3)")
		spanRate = fs.Float64("span-rate", 1.0, "seed-deterministic span sampling rate in [0,1] with -spans")
		tlPath   = fs.String("timeline", "", "write per-tick timeseries (in-flight, link backlog, suspicions) to this JSON file")
		tlEvery  = fs.Int64("timeline-every", 1, "timeline sampling cadence in ticks with -timeline")
		metrics  = fs.Bool("metrics", false, "print the run's metric snapshot")
		verbose  = fs.Bool("v", false, "print the full history")
	)
	suspects := &injections{kind: "suspect"}
	crashes := &injections{kind: "crash"}
	fs.Var(suspects, "suspect", "injection i:j@t — process i suspects j at tick t (repeatable)")
	fs.Var(crashes, "crash", "injection p@t — process p crashes at tick t (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opts.T < 1 {
		// The facade would run T = 0 as T = 1 and report the 0.
		fmt.Fprintf(out, "bad -t %d: want a failure bound of at least 1\n", opts.T)
		return 2
	}
	if !(*spanRate >= 0 && *spanRate <= 1) { // NaN too
		fmt.Fprintf(out, "bad -span-rate %g: want a rate in [0,1]\n", *spanRate)
		return 2
	}
	if *tlEvery < 0 {
		fmt.Fprintf(out, "bad -timeline-every %d: want a sampling cadence of at least 0 ticks\n", *tlEvery)
		return 2
	}
	planLabel := *planName
	switch {
	case *planName != "" && *planFile != "":
		fmt.Fprintln(out, "use -plan or -plan-file, not both")
		return 2
	case *planName != "":
		plan, err := failstop.BuiltinFaultPlan(*planName, opts.N, opts.T)
		if err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		opts.Faults = &plan
	case *planFile != "":
		plan, err := failstop.LoadFaultPlan(*planFile)
		if err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		opts.Faults = &plan
		planLabel = plan.Name
	}
	if *lintPlan && *dumpPlan {
		// Honoring one silently (lint first) would leave a confirmation line
		// where the caller expected plan JSON.
		fmt.Fprintln(out, "use -validate-plan or -dump-plan, not both")
		return 2
	}
	if *lintPlan {
		// Lint-only mode: exercise exactly the validation the run would, then
		// stop. Exit 1 (not 2) on a bad plan — the lint did its job.
		if opts.Faults == nil {
			fmt.Fprintln(out, "-validate-plan needs -plan or -plan-file")
			return 2
		}
		if err := opts.Faults.Validate(opts.N); err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		fmt.Fprintf(out, "plan %q: %d rules, %d proc rules, %d byz rules, valid for n=%d\n",
			planLabel, len(opts.Faults.Rules), len(opts.Faults.Procs), len(opts.Faults.Byz), opts.N)
		return 0
	}
	if *dumpPlan {
		if opts.Faults == nil {
			fmt.Fprintln(out, "-dump-plan needs -plan or -plan-file")
			return 2
		}
		// Never emit a plan file the other entry points (and -validate-plan
		// itself) would reject.
		if err := opts.Faults.Validate(opts.N); err != nil {
			fmt.Fprintln(out, err)
			return 1
		}
		if err := failstop.WriteFaultPlan(out, *opts.Faults); err != nil {
			fmt.Fprintln(out, err)
			return 2
		}
		return 0
	}
	// -maxtime left at 0 where a horizon is all the options lack: 5,000 ticks.
	bounded := opts
	bounded.MaxTime = 5000
	if opts.MaxTime == 0 && opts.Validate() != nil && bounded.Validate() == nil {
		opts = bounded
	}
	if *spans {
		// The recorder is seeded with the simulation seed, so the sampled
		// message set — and therefore the span stream — is a pure function
		// of (options, seed): running twice yields byte-identical spans.
		opts.Spans = failstop.NewSpanRecorder(opts.Seed, *spanRate)
	}
	if *tlPath != "" {
		opts.Timeline = failstop.NewTimeline(*tlEvery, 0)
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(out, err)
		return 2
	}
	c := failstop.NewCluster(opts)
	// An id naming nobody is a usage error here, not a panic inside the run
	// or an event no checker accepts.
	for _, s := range suspects.vals {
		var i, j int
		var at int64
		if err := scanAll(s, "%d:%d@%d", &i, &j, &at); err != nil {
			fmt.Fprintf(out, "bad -suspect %q (want i:j@t): %v\n", s, err)
			return 2
		}
		if i < 1 || i > opts.N || j < 1 || j > opts.N {
			fmt.Fprintf(out, "bad -suspect %q: processes are 1..%d (-n)\n", s, opts.N)
			return 2
		}
		c.SuspectAt(at, failstop.ProcID(i), failstop.ProcID(j))
	}
	for _, s := range crashes.vals {
		var p int
		var at int64
		if err := scanAll(s, "%d@%d", &p, &at); err != nil {
			fmt.Fprintf(out, "bad -crash %q (want p@t): %v\n", s, err)
			return 2
		}
		if p < 1 || p > opts.N {
			fmt.Fprintf(out, "bad -crash %q: processes are 1..%d (-n)\n", s, opts.N)
			return 2
		}
		c.CrashAt(at, failstop.ProcID(p))
	}

	rep := c.Run()
	fmt.Fprintf(out, "run: n=%d t=%d protocol=%s seed=%d events=%d sent=%d delivered=%d quiescent=%v end=%d\n",
		opts.N, opts.T, opts.Protocol, opts.Seed, len(rep.History), rep.Sent, rep.Delivered, rep.Quiescent, rep.EndTime)
	if opts.Topology != nil && !opts.Topology.IsFull() {
		fmt.Fprintf(out, "topology: %s\n", opts.Topology.Name())
	}
	if opts.Faults != nil {
		fmt.Fprintf(out, "faults: plan=%s dropped=%d duplicated=%d\n", planLabel, rep.Dropped, rep.Duplicated)
	}
	if opts.Recovery != failstop.RecoveryOff || rep.PlanCrashes > 0 {
		fmt.Fprintf(out, "recovery: mode=%s plan-crashes=%d restarts=%d recovered=%d\n",
			opts.Recovery, rep.PlanCrashes, rep.Restarts, rep.Recovered)
	}
	if opts.Reliable.Enabled {
		fmt.Fprintf(out, "reliable: retransmits=%d acked-duplicates=%d\n", rep.Retransmits, rep.AckedDuplicates)
	}
	if opts.Byzantine.Enabled || (opts.Faults != nil && len(opts.Faults.Byz) > 0) {
		fmt.Fprintf(out, "byzantine: detected=%d masked=%d corrupted=%d equivocated=%d replayed=%d\n",
			rep.ByzDetected, rep.ByzMasked, rep.Corrupted, rep.Equivocated, rep.Replayed)
	}
	if *spans {
		fmt.Fprintf(out, "spans: %d recorded (rate %g)\n", len(rep.Spans), *spanRate)
	}
	if *metrics {
		fmt.Fprintf(out, "metrics:\n%s", rep.Metrics)
	}
	if *verbose {
		fmt.Fprint(out, rep.History.String())
	}
	fmt.Fprintln(out, "verdicts:")
	bad := false
	for _, v := range rep.Verdicts {
		fmt.Fprintf(out, "  %s\n", v)
		if !v.Holds && v.Property != "FS2" {
			bad = true
		}
	}
	if _, err := failstop.RewriteToFS(rep.Abstract); err != nil {
		fmt.Fprintf(out, "indistinguishability: NO isomorphic fail-stop run (%v)\n", err)
	} else {
		fmt.Fprintln(out, "indistinguishability: isomorphic fail-stop run constructed and verified")
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(out, "writing trace: %v\n", err)
			return 1
		}
		defer f.Close()
		// The injected fault script is the run's schedule: record it so the
		// trace carries its full fault context.
		var sched []string
		for _, s := range crashes.vals {
			sched = append(sched, "crash "+s)
		}
		for _, s := range suspects.vals {
			sched = append(sched, "suspect "+s)
		}
		hdr := trace.Header{
			N: opts.N, T: opts.T, Protocol: opts.Protocol.String(), Seed: opts.Seed,
			Schedule: strings.Join(sched, "; "), Plan: planLabel,
			// The fully serialized plan, not just its name, so the trace
			// replays without access to the builtin registry.
			FaultPlan: opts.Faults,
		}
		if *spans {
			hdr.SpanRate = *spanRate
		}
		if err := trace.WriteSpans(f, hdr, rep.History, rep.Spans); err != nil {
			fmt.Fprintf(out, "writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "trace written to %s\n", *outPath)
	}
	if *tlPath != "" {
		tf, err := os.Create(*tlPath)
		if err != nil {
			fmt.Fprintf(out, "writing timeline: %v\n", err)
			return 1
		}
		defer tf.Close()
		enc := json.NewEncoder(tf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep.Timeline); err != nil {
			fmt.Fprintf(out, "writing timeline: %v\n", err)
			return 1
		}
		fmt.Fprintf(out, "timeline written to %s (%d series)\n", *tlPath, len(rep.Timeline))
	}
	if bad {
		return 1
	}
	return 0
}
