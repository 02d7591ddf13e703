// Package sweep is a parallel scenario-sweep engine: it expands a
// declarative grid of simulation scenarios — ranges over cluster size n,
// failure bound t, protocol variant, quorum sizing, fault-injection
// schedule, network fault plan, delay distribution, and seeds — into
// concrete deterministic runs, executes them on a worker pool, pipes every
// recorded history through the property checker, and aggregates per-cell
// results: verdict counts per property (FS1/FS2, sFS2a–d, Conditions 1–3,
// the Witness property), stop-reason and quiescence tallies, network-fault
// tallies (dropped/duplicated messages, quorum starvation), and run-length
// percentiles.
//
// Each simulated run is deterministic and self-contained (its own
// simulator, RNG, and handlers), so runs parallelize with no shared state;
// aggregation is order-independent, making a sweep's results (Report.Cells
// and Report.Runs — everything except the Workers bookkeeping field)
// identical no matter how many workers execute it.
//
// The unit of aggregation is the Cell: every combination of grid axes
// except the seed. A sweep of 4 (n,t) cells × 250 seeds is 1000 runs
// aggregated into 4 cells.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/obs"
	"failstop/internal/quorum"
	"failstop/internal/recovery"
	"failstop/internal/reliable"
	"failstop/internal/sim"
	"failstop/internal/topo"
)

// NT is one (cluster size, failure bound) grid point.
//
//sfs:wire
type NT struct {
	N int `json:"n"`
	T int `json:"t"`
}

func (nt NT) String() string { return fmt.Sprintf("n=%d t=%d", nt.N, nt.T) }

// SeedRange is the seed axis: Count consecutive seeds starting at Start.
type SeedRange struct {
	Start int64
	Count int
}

// Shard selects one deterministic slice of the (cell, seed) job stream, so
// one grid can fan out across processes or machines: run the same Spec
// with Shard{i, k} for every i in 0..k-1 — anywhere, in any order — and
// recombine the per-shard reports with Merge into exactly the report the
// unsharded sweep produces. The global job stream is interleaved
// round-robin (global job index mod Count), so shards stay balanced within
// every cell. The zero value runs everything.
//
//sfs:wire
type Shard struct {
	// Index is this shard's number, 0 <= Index < Count.
	Index int `json:"index"`
	// Count is the total number of shards; 0 or 1 means unsharded.
	Count int `json:"count"`
}

// FaultKind distinguishes the two injectable faults.
type FaultKind int

const (
	// FaultCrash: Proc crashes genuinely at At.
	FaultCrash FaultKind = iota + 1
	// FaultSuspect: Proc begins the detection protocol for Target at At
	// (a spontaneous — possibly erroneous — suspicion).
	FaultSuspect
)

// Fault is one scripted injection.
type Fault struct {
	Kind   FaultKind
	At     int64
	Proc   model.ProcID
	Target model.ProcID // FaultSuspect only
}

// Schedule is one named fault-injection schedule, instantiated per grid
// cell and seed. Faults may be nil (a quiet run). Delay, when non-nil,
// overrides the spec-level delay distribution — schedules that need an
// adversarial delay coupled to their injections (parked kill paths, delay
// spikes) supply it here.
//
// Faults and Delay (like RunnerFn and ObserveFn) are called concurrently
// from worker goroutines and must be goroutine-safe: derive any randomness
// from the passed seed (a fresh rand.Rand per call), never from shared
// mutable state.
type Schedule struct {
	Name   string
	Faults func(nt NT, seed int64) []Fault
	Delay  func(nt NT, seed int64) sim.DelayFn
}

// Cell identifies one aggregation cell: every grid axis except the seed.
//
//sfs:wire
type Cell struct {
	NT       NT            `json:"nt"`
	Protocol core.Protocol `json:"protocol"`
	// QuorumDelta offsets the detector quorum size from the Theorem 7
	// minimum quorum.MinSize(N, T); 0 is the protocol default.
	QuorumDelta int `json:"quorum_delta"`
	// Schedule is the fault schedule's name.
	Schedule string `json:"schedule"`
	// Plan is the network fault plan's name; "" means a fault-free network.
	Plan string `json:"plan"`
	// Topo is the communication topology's compact name (topo.Spec.Name:
	// "gossip:8", "hier:4x8"); "" means the paper's complete graph.
	Topo string `json:"topo,omitempty"`
	// Reliable reports whether the cell runs with the reliable-delivery
	// layer (ack + retransmission) interposed under the protocol.
	Reliable bool `json:"reliable"`
	// Recovery is the crash-recovery mode the cell's process-fault rules
	// run under (off: environment crashes are terminal; amnesia/durable:
	// crashed processes restart per the plan). Off for cells without
	// process faults.
	Recovery recovery.Mode `json:"recovery,omitempty"`
	// Byzantine reports whether the cell runs with the validation
	// interposer (per-sender MACs, echo quorums, replay watermark) under
	// the protocol, masking misbehavior into crashes.
	Byzantine bool `json:"byzantine,omitempty"`
}

// String renders the cell identity compactly.
func (c Cell) String() string {
	s := fmt.Sprintf("%s proto=%v", c.NT, c.Protocol)
	if c.QuorumDelta != 0 {
		s += fmt.Sprintf(" q%+d", c.QuorumDelta)
	}
	if c.Schedule != "" {
		s += " sched=" + c.Schedule
	}
	if c.Plan != "" {
		s += " plan=" + c.Plan
	}
	if c.Topo != "" {
		s += " topo=" + c.Topo
	}
	if c.Reliable {
		s += " rel"
	}
	if c.Recovery != recovery.Off {
		s += " rec=" + c.Recovery.String()
	}
	if c.Byzantine {
		s += " byz"
	}
	return s
}

// RunOutput is what one scenario run produced. Custom runners may leave
// Cluster nil; Metrics carries named boolean outcomes to aggregate beyond
// the checker's verdicts; Obs carries the run's observability counters
// (the default runner merges the simulator's snapshot with the fault
// plane's, when one was active) to total per cell, and a nil Obs is read
// as Result.Metrics, the simulator's own snapshot.
type RunOutput struct {
	Result  *sim.Result
	Cluster *cluster.Cluster
	Metrics map[string]bool
	Obs     obs.Metrics
}

// RunnerFn executes one scenario, replacing the default cluster
// construction entirely (for sweeps over pre-packaged adversaries).
// Called concurrently from worker goroutines; must be goroutine-safe.
type RunnerFn func(cell Cell, seed int64) RunOutput

// ObserveFn inspects a finished run (including its Cluster, when the
// default runner produced one) and returns named boolean outcomes to
// aggregate into CellResult.Metrics. Called concurrently from worker
// goroutines; must be goroutine-safe.
type ObserveFn func(cell Cell, seed int64, out RunOutput) map[string]bool

// Spec is the declarative scenario grid. Cells are the cross product
// Grid × Protocols × QuorumDeltas × Schedules × Plans × Topologies ×
// Reliable × Recovery × Byzantine, in the order Cells gives; each cell runs
// once per seed in Seeds.
type Spec struct {
	// Grid lists the (n, t) points. Required.
	Grid []NT
	// Protocols lists the protocol variants. Default: SimulatedFailStop.
	Protocols []core.Protocol
	// QuorumDeltas lists offsets from the minimum quorum size. Default: {0}.
	QuorumDeltas []int
	// Schedules lists the fault schedules. Default: one quiet schedule.
	Schedules []Schedule
	// Plans lists the network fault plans (netadv generators, instantiated
	// once per grid point). Default: one fault-free network. Runs with a
	// non-empty plan additionally aggregate dropped/duplicated counts and a
	// quorum-starvation diagnostic (a live process left with a detection it
	// began but could not complete).
	Plans []netadv.Generator
	// Topologies lists the communication topologies to grid over (see
	// internal/topo): the complete graph (the zero topo.Spec), gossip
	// fan-out graphs, rack/region hierarchies. Default: one complete-graph
	// entry. Under a partial topology every process broadcasts to its
	// neighborhood only and completes quorums over that neighborhood's
	// pool, which is what keeps N in the 10⁴–10⁶ range simulable.
	Topologies []topo.Spec
	// Reliable lists the reliable-delivery configurations to grid over —
	// typically a disabled zero value next to an enabled one, so every
	// other cell runs with and without retransmission. Default: one
	// disabled entry.
	Reliable []reliable.Options
	// Recovery lists the crash-recovery modes to grid over; meaningful
	// only alongside plans with process-fault rules (which drive crashes
	// and restarts). Default: {recovery.Off}. Plans whose process faults
	// recur forever require MaxTime when any listed mode is not Off.
	Recovery []recovery.Mode
	// Byzantine lists the validation-interposer configurations to grid
	// over — typically a disabled zero value next to an enabled one, so
	// every other cell runs with and without misbehavior masking.
	// Default: one disabled entry. Cells with the interposer additionally
	// aggregate conviction and masked-frame counts.
	Byzantine []byz.Options
	// Seeds is the seed range. Default: {Start: 0, Count: 1}.
	Seeds SeedRange
	// Shard restricts execution to one deterministic 1/Count slice of the
	// (cell, seed) job stream (see Shard). The report still lists every
	// cell — cells whose jobs all fall on other shards aggregate zero runs
	// — so shard reports merge positionally.
	Shard Shard

	// MinDelay/MaxDelay bound the default uniform message delay, as in
	// sim.Config. A Schedule.Delay overrides both.
	MinDelay, MaxDelay int64
	// MaxTime and MaxEvents bound each run, as in sim.Config.
	MaxTime   int64
	MaxEvents int

	// HeartbeatEvery, when positive, attaches the fd heartbeat layer to
	// every process (interval in ticks); HeartbeatTimeout is its suspicion
	// timeout. Heartbeats re-arm forever, so MaxTime must be set. Runs with
	// heartbeats additionally aggregate a false-suspicion metric: a run in
	// which some process suspected a target that had not crashed (yet) —
	// the Theorem 1 timeout dilemma made countable under real loss.
	HeartbeatEvery   int64
	HeartbeatTimeout int64

	// Timeline, when true, attaches a per-tick timeseries sampler to every
	// run (in-flight messages, link backlog, suspicion count) and
	// aggregates each series' per-run peak into the cell's Timeseries
	// summaries. TimelineEvery is the sampling cadence in virtual-time
	// ticks; 0 means every tick.
	Timeline      bool
	TimelineEvery int64

	// Check pipes every quiescent run's history through checker.All and
	// aggregates per-property verdict counts. Only quiescent runs are
	// checked: the checker's liveness verdicts (FS1, sFS2a, Condition 1)
	// are sound only at quiescence.
	Check bool
	// Runner replaces the default cluster construction when non-nil.
	Runner RunnerFn
	// Observe adds custom named outcomes to each run when non-nil.
	Observe ObserveFn
}

// Options controls execution, not scenario content.
type Options struct {
	// Workers sizes the worker pool. 0 means GOMAXPROCS; 1 is the serial
	// baseline.
	Workers int
	// Progress, when non-nil, receives a per-worker progress and throughput
	// line once a second while the sweep runs (cmd/sfs-sweep points it at
	// stderr under -progress). Progress output is execution bookkeeping —
	// wall-clock pacing, worker attribution — and never reaches the
	// report, so enabling it cannot perturb results.
	Progress io.Writer
}

func (s Spec) withDefaults() Spec {
	if len(s.Protocols) == 0 {
		s.Protocols = []core.Protocol{core.SimulatedFailStop}
	}
	if len(s.QuorumDeltas) == 0 {
		s.QuorumDeltas = []int{0}
	}
	if len(s.Schedules) == 0 {
		s.Schedules = []Schedule{{Name: "quiet"}}
	}
	if len(s.Plans) == 0 {
		s.Plans = []netadv.Generator{{}}
	}
	if len(s.Topologies) == 0 {
		s.Topologies = []topo.Spec{{}}
	}
	if len(s.Reliable) == 0 {
		s.Reliable = []reliable.Options{{}}
	}
	if len(s.Recovery) == 0 {
		s.Recovery = []recovery.Mode{recovery.Off}
	}
	if len(s.Byzantine) == 0 {
		s.Byzantine = []byz.Options{{}}
	}
	if s.Seeds.Count == 0 {
		s.Seeds.Count = 1
	}
	if s.Shard.Count == 0 {
		s.Shard.Count = 1
	}
	return s
}

// Validate reports the first problem with the spec, or nil: its own rules (a
// grid with n >= 2 and t >= 1, seeds, shard, duplicate names, each plan's Make
// named, a HeartbeatTimeout with heartbeats), a topology that does not fit a
// grid point, or what cluster.Options.Validate and CheckHorizon reject of a cell.
func (s Spec) Validate() error {
	_, err := s.withDefaults().expand()
	return err
}

// expand validates the spec, defaults applied, and returns its cells: the one
// validation Validate and Run share.
func (s Spec) expand() ([]cellSpec, error) {
	if len(s.Grid) == 0 {
		return nil, fmt.Errorf("sweep: Spec.Grid is empty")
	}
	for _, nt := range s.Grid {
		if nt.N < 2 || nt.T < 1 {
			return nil, fmt.Errorf("sweep: invalid grid point %v (need n >= 2, t >= 1)", nt)
		}
	}
	if s.Seeds.Count < 0 {
		return nil, fmt.Errorf("sweep: negative seed count %d", s.Seeds.Count)
	}
	if s.Shard.Count < 1 || s.Shard.Index < 0 || s.Shard.Index >= s.Shard.Count {
		return nil, fmt.Errorf("sweep: shard %d of %d out of range (want 0 <= index < count)", s.Shard.Index, s.Shard.Count)
	}
	var names []string // each axis entry's name, as a duplicate is reported
	for _, sc := range s.Schedules {
		names = append(names, fmt.Sprintf("schedule name %q", sc.Name))
	}
	for _, pg := range s.Plans {
		names = append(names, fmt.Sprintf("plan name %q", pg.Name))
		if pg.Name != "" && pg.Make == nil {
			return nil, fmt.Errorf("sweep: plan %q has no Make function", pg.Name)
		}
		if pg.Name == "" && pg.Make != nil {
			// Plan names key cell identity and the report's fault columns;
			// an anonymous plan would run its faults invisibly.
			return nil, fmt.Errorf("sweep: plan with a Make function needs a name")
		}
	}
	for _, tp := range s.Topologies {
		names = append(names, fmt.Sprintf("topology %q", tp.Name()))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("sweep: duplicate %s", name)
		}
		seen[name] = true
	}
	if s.HeartbeatEvery > 0 && s.HeartbeatTimeout <= 0 {
		// fd.Heartbeat with Timeout 0 is a pure sender that never suspects:
		// the false-suspicion column would read 0/N no matter the loss.
		return nil, fmt.Errorf("sweep: Spec.HeartbeatTimeout = %d: heartbeats (HeartbeatEvery = %d) need a timeout > 0 (a timeout-less detector never suspects, so the false-suspicion metric would be vacuous)", s.HeartbeatTimeout, s.HeartbeatEvery)
	}
	cells, err := s.cells()
	if err != nil {
		return nil, err
	}
	for _, cs := range cells {
		co := s.options(cs, s.Seeds.Start)
		err := co.Validate()
		if err == nil {
			err = co.CheckHorizon()
		}
		if err != nil {
			return nil, fmt.Errorf("sweep: Spec.%w (cell %v)", err, cs.cell)
		}
	}
	return cells, nil
}

// cellSpec pairs a Cell with its resolved schedule, fault plan, topology,
// and interposer configurations.
type cellSpec struct {
	cell   Cell
	sched  Schedule
	faults *netadv.Plan   // the plan generator's instance at the grid point; nil for none
	top    *topo.Topology // nil for the complete graph
	links  int64          // directed link count of the cell's topology
	fanout int            // gossip sample fanout; 0 for the other kinds
	rel    reliable.Options
	byz    byz.Options
}

// Cells expands the grid axes (everything but the seed) in deterministic
// order: grid point, then protocol, quorum delta, schedule, plan, topology,
// reliable, recovery and byzantine, the last varying fastest. Report.Cells
// follows the same order. A spec whose topologies do not fit its grid
// (Validate says which) has no cells.
func (s Spec) Cells() []Cell {
	cells, _ := s.withDefaults().cells()
	var out []Cell
	for _, cs := range cells {
		out = append(out, cs.cell)
	}
	return out
}

// cells expands the grid, or reports a topology that does not fit a point.
func (s Spec) cells() ([]cellSpec, error) {
	var out []cellSpec
	for _, nt := range s.Grid {
		// Resolve each topology once per grid point and share the instance
		// across the point's cells and all their runs (a Topology is
		// immutable): gossip adjacency is O(N·Fanout) to materialize, which
		// must not be paid per seed. Plans are data, instantiated once per
		// grid point the same way.
		tops := make([]*topo.Topology, len(s.Topologies))
		for i, tp := range s.Topologies {
			if tp.IsFull() {
				continue
			}
			var err error
			if tops[i], err = topo.New(tp, nt.N); err != nil {
				return nil, fmt.Errorf("sweep: Spec.Topology %q at %v: %w", tp.Name(), nt, err)
			}
		}
		plans := make([]*netadv.Plan, len(s.Plans))
		for i, pg := range s.Plans {
			if pg.Make != nil {
				p := pg.Make(nt.N, nt.T)
				plans[i] = &p
			}
		}
		for _, proto := range s.Protocols {
			for _, qd := range s.QuorumDeltas {
				for _, sched := range s.Schedules {
					for pi, pg := range s.Plans {
						for ti, tp := range s.Topologies {
							topName := ""
							links := int64(nt.N) * int64(nt.N-1)
							if tops[ti] != nil {
								topName = tp.Name()
								links = tops[ti].Links()
							}
							fanout := tp.Fanout
							for _, ro := range s.Reliable {
								for _, rm := range s.Recovery {
									for _, bo := range s.Byzantine {
										out = append(out, cellSpec{
											cell: Cell{
												NT: nt, Protocol: proto, QuorumDelta: qd,
												Schedule: sched.Name, Plan: pg.Name,
												Topo:      topName,
												Reliable:  ro.Enabled,
												Recovery:  rm,
												Byzantine: bo.Enabled,
											},
											sched:  sched,
											faults: plans[pi],
											top:    tops[ti],
											links:  links,
											fanout: fanout,
											rel:    ro,
											byz:    bo,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Runs returns the number of scenario runs the spec expands to. When the
// spec is sharded, that is this shard's slice of the stream, not the whole
// grid.
func (s Spec) Runs() int {
	s = s.withDefaults()
	cells, _ := s.cells()
	return s.runs(len(cells))
}

// runs is this shard's share of ncells cells' runs (defaults applied).
func (s Spec) runs(ncells int) int {
	total := ncells * s.Seeds.Count
	if s.Shard.Count <= 1 {
		return total
	}
	n := total / s.Shard.Count
	if s.Shard.Index < total%s.Shard.Count {
		n++
	}
	return n
}

// job is the (cell, seed) job stream as a pure rule: index g — cells in
// cells() order, seeds ascending within each cell — names cell g/Seeds.Count
// at seed Start + g%Seeds.Count, and is this shard's iff g is congruent to
// Shard.Index mod Shard.Count. Disjointness and exhaustiveness across the k
// shards of a stream follow directly from the residue classes mod k. The
// spec must already have defaults applied.
func (s Spec) job(g int) (cellIdx int, seed int64, ours bool) {
	return g / s.Seeds.Count, s.Seeds.Start + int64(g%s.Seeds.Count), g%s.Shard.Count == s.Shard.Index
}

// options is the configuration of a run of cell cs at seed: what defaultRun
// runs and, at the first seed, what Validate checks.
func (s Spec) options(cs cellSpec, seed int64) cluster.Options {
	cell := cs.cell
	var delay sim.DelayFn
	if cs.sched.Delay != nil {
		delay = cs.sched.Delay(cell.NT, seed)
	}
	qsize := 0
	if cell.QuorumDelta != 0 {
		qsize = quorum.MinSize(cell.NT.N, cell.NT.T) + cell.QuorumDelta
		if qsize < 1 {
			qsize = 1
		}
	}
	var timeline *obs.Timeline
	if s.Timeline {
		timeline = obs.NewTimeline(s.TimelineEvery, 0)
	}
	return cluster.Options{
		Sim: sim.Config{
			N: cell.NT.N, Seed: seed,
			MinDelay: s.MinDelay, MaxDelay: s.MaxDelay,
			Delay:   delay,
			MaxTime: s.MaxTime, MaxEvents: s.MaxEvents,
			Timeline: timeline,
			Recovery: cell.Recovery,
		},
		Det: core.Config{
			N: cell.NT.N, T: cell.NT.T,
			Protocol: cell.Protocol, QuorumSize: qsize,
			Topology: cs.top,
		},
		Faults: cs.faults, HeartbeatEvery: s.HeartbeatEvery, HeartbeatTimeout: s.HeartbeatTimeout,
		Reliable: cs.rel, Byzantine: cs.byz,
	}
}

// defaultRun builds and runs one scenario with the standard cluster stack.
func defaultRun(spec Spec, cs cellSpec, seed int64) RunOutput {
	cell := cs.cell
	c := cluster.New(spec.options(cs, seed))
	if cs.sched.Faults != nil {
		for _, f := range cs.sched.Faults(cell.NT, seed) {
			switch f.Kind {
			case FaultCrash:
				c.CrashAt(f.At, f.Proc)
			case FaultSuspect:
				c.SuspectAt(f.At, f.Proc, f.Target)
			}
		}
	}
	out := RunOutput{Result: c.Run(), Cluster: c}
	out.Obs = out.Result.Metrics
	if c.Plane != nil || spec.HeartbeatEvery > 0 {
		out.Metrics = map[string]bool{}
	}
	if c.Plane != nil {
		out.Obs = obs.Merge(out.Obs, c.Plane.Metrics())
		// Quorum-starvation diagnostic: a live process began a detection the
		// (faulty) network never let it complete — the liveness failure mode
		// partitions and lossy links induce in the §5 protocol.
		out.Metrics["quorum-starved"] = quorumStarved(c)
	}
	if spec.HeartbeatEvery > 0 {
		// False-suspicion diagnostic: a timeout fired on a process that had
		// not crashed (Theorem 1's dilemma — under loss, every finite
		// timeout eventually accuses the living).
		out.Metrics["false-suspicion"] = falseSuspicion(out.Result.History, c.N())
	}
	return out
}

// falseSuspicion reports whether the history of n processes contains a
// suspicion of a process that had not crashed when the suspicion was raised:
// the target either never crashes, or its first crash appears later in the
// history (a genuine post-crash timeout suspicion orders the other way, and
// still does after the target restarts).
func falseSuspicion(h model.History, n int) bool {
	crashed := make([]bool, n+1) // crashed[p]: crash_p has occurred, whatever followed it
	for i := range h {
		switch e := &h[i]; {
		case e.Kind == model.KindCrash && e.Proc > 0 && int(e.Proc) <= n:
			crashed[e.Proc] = true
		case e.Kind == model.KindInternal && e.Tag == "suspect":
			if e.Target <= 0 || int(e.Target) > n || !crashed[e.Target] {
				return true
			}
		}
	}
	return false
}

// quorumStarved reports whether any live process of the finished cluster is
// stuck mid-detection: it suspected some target (broadcast sent) but the
// quorum condition never let failed_i(j) execute. Detecting walks the
// process's suspicion set, not 1..N, so the scan is O(N + suspicions) —
// what keeps the diagnostic affordable at N=10⁴ and beyond.
func quorumStarved(c *cluster.Cluster) bool {
	for p := 1; p <= c.N(); p++ {
		d := c.Detectors[p]
		if !d.Crashed() && d.Detecting() {
			return true
		}
	}
	return false
}

// Run expands the spec and executes every scenario (this shard's slice,
// when Spec.Shard is set) on a pool of opts.Workers workers, returning the
// aggregated report. The report is independent of worker count and
// scheduling order.
//
// Aggregation streams: each worker folds every run it executes straight
// into its own array of CellResults under construction, with no
// cross-goroutine traffic; the per-worker arrays merge into the report's
// cells after the pool drains. Merging is order-independent — counters add
// commutatively and run-length samples are sorted at finalization — which
// is what keeps the report identical across worker counts.
func Run(spec Spec, opts Options) (*Report, error) {
	spec = spec.withDefaults()
	cells, err := spec.expand()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Workers draw stream indexes from one shared cursor: which worker runs
	// which job is the scheduler's choice, and the report cannot tell.
	var cursor atomic.Int64
	stream := int64(len(cells) * spec.Seeds.Count)

	// Per-cell sample slices are sized for an even split of the seed axis
	// over the pool; lazy creation keeps a worker from allocating
	// accumulators for cells the scheduler (or the shard filter) never
	// hands it.
	sampleHint := spec.Seeds.Count/workers + 1
	perWorker := make([][]*CellResult, workers)
	// done[w] counts worker w's completed runs; the progress reporter (when
	// enabled) reads them concurrently, so they are atomic counters. The
	// counts feed stderr only, never the report.
	done := make([]obs.Counter, workers)
	stopProgress := startProgress(opts, spec.runs(len(cells)), done)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		mine := make([]*CellResult, len(cells))
		perWorker[w] = mine
		mydone := &done[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := cursor.Add(1) - 1; g < stream; g = cursor.Add(1) - 1 {
				idx, seed, ours := spec.job(int(g))
				if !ours {
					continue
				}
				cs := cells[idx]
				out, verdicts := execute(spec, cs, seed)
				if mine[idx] == nil {
					c := newCellResult(cs.cell, cs.links, cs.fanout, sampleHint)
					mine[idx] = &c
				}
				mine[idx].add(out, verdicts)
				if spec.Runner == nil && spec.Observe == nil { // defaultRun's, shown to no hook: ours alone
					out.Result.Release()
				}
				mydone.Inc()
			}
		}()
	}
	wg.Wait()
	stopProgress()

	// Merge worker arrays in worker order. Any fixed order yields the same
	// report; fixing one anyway keeps the merge itself deterministic.
	rep := &Report{Shard: spec.Shard, Workers: workers}
	rep.Cells = make([]CellResult, len(cells))
	for i, cs := range cells {
		rep.Cells[i] = newCellResult(cs.cell, cs.links, cs.fanout, 0)
		c := &rep.Cells[i]
		for _, mine := range perWorker {
			if mine[i] != nil {
				c.merge(mine[i])
			}
		}
		c.finalize()
		rep.Runs += c.Runs
	}
	return rep, nil
}

// startProgress launches the progress reporter when opts.Progress is set
// and returns a function that stops it (after one final line). The
// reporter is the one wall-clock consumer in this package: it paces and
// timestamps stderr lines, and nothing it reads or writes can reach the
// report, so the determinism contract is untouched.
func startProgress(opts Options, total int, done []obs.Counter) (stop func()) {
	if opts.Progress == nil {
		return func() {}
	}
	//sfs:allow detwallclock progress throughput needs a wall-clock epoch; output is stderr bookkeeping, never the report
	start := time.Now()
	report := func() {
		var sum int64
		var b []byte
		for w := range done {
			n := done[w].Value()
			sum += n
			b = fmt.Appendf(b, " w%d=%d", w, n)
		}
		//sfs:allow detwallclock progress throughput divides by wall-clock elapsed; output is stderr bookkeeping, never the report
		elapsed := time.Since(start).Seconds()
		rate := 0.0
		if elapsed > 0 {
			rate = float64(sum) / elapsed
		}
		fmt.Fprintf(opts.Progress, "sweep: %d/%d runs, %.1f runs/s,%s\n", sum, total, rate, b)
	}
	//sfs:allow detwallclock progress pacing runs on real time; output is stderr bookkeeping, never the report
	tick := time.NewTicker(time.Second)
	quit := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				report()
			}
		}
	}()
	return func() {
		tick.Stop()
		close(quit)
		<-finished
		report()
	}
}

// execute runs one scenario and returns what its cell aggregates: the
// run's output — Obs defaulted, Metrics joined with Spec.Observe's — and
// the checker's verdicts (nil when the run was not checked).
func execute(spec Spec, cs cellSpec, seed int64) (RunOutput, []checker.Verdict) {
	var out RunOutput
	if spec.Runner != nil {
		out = spec.Runner(cs.cell, seed)
	} else {
		out = defaultRun(spec, cs, seed)
	}
	if out.Obs == nil {
		// The report's counter columns are read from Obs: a custom runner
		// that assembles no snapshot still reports the simulator's.
		out.Obs = out.Result.Metrics
	}
	var verdicts []checker.Verdict
	if spec.Check && out.Result.Quiescent() {
		verdicts = checker.All(out.Result.History, core.TagSusp, cs.cell.NT.T)
	}
	if spec.Observe != nil {
		extra := spec.Observe(cs.cell, seed, out)
		if out.Metrics == nil {
			out.Metrics = extra
		} else {
			merged := make(map[string]bool, len(out.Metrics)+len(extra))
			//sfs:allow detmaprange map-to-map copy; insertion order is invisible
			for k, v := range out.Metrics {
				merged[k] = v
			}
			//sfs:allow detmaprange map-to-map copy; Observe overrides defaults regardless of order
			for k, v := range extra {
				merged[k] = v
			}
			out.Metrics = merged
		}
	}
	return out, verdicts
}

// metricNames returns the sorted union of metric names in ms.
func metricNames[V any](ms ...map[string]V) []string {
	set := map[string]bool{}
	for _, m := range ms {
		//sfs:allow detmaprange set union; the set is drained into a sorted slice below
		for k := range m {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
