package lint

// GuardKind is what a guard asks of its pattern within its scope.
type GuardKind int

const (
	Once    GuardKind = iota // the pattern, a fixed string, is in exactly one file
	Retired                  // no line of the scope matches the pattern
	Count                    // exactly N lines of the scope match the pattern
	// Imports: no package of the scope imports a package whose full path
	// matches the pattern, directly if Direct, else through any chain of
	// the module's own packages.
	Imports
)

// Guard is one structural rule of this repository: one row of Guards.
type Guard struct {
	Kind GuardKind
	// Pattern is a fixed string for Once and an RE2 regexp otherwise,
	// matched line by line, or against import paths for Imports.
	Pattern string
	// Scope lists module-relative files and directories (searched
	// recursively); each must exist. Nil is the whole module.
	Scope  []string
	N      int  // Count: the matching lines wanted
	Direct bool // Imports: direct imports only
	// Reason says what the rule keeps true; PR, when set, is the CHANGES.md
	// entry that set it.
	Reason string
	PR     int
}

// Guards is the repository's structural rules, one row each. A new rule is
// one row here and nothing else: guards_test.go runs the table over the
// repository and plants a violation of every row.
var Guards = []Guard{
	// The simulator and the live runtime share internal/host and one stack
	// assembly, cluster.Build. Each of these was once written twice, word for word.
	{Kind: Once, Pattern: "Kind: obs.SpanFate", Reason: "a message's fate span is recorded by host.Core alone", PR: 16},
	{Kind: Once, Pattern: "Kind: obs.SpanRestart", Reason: "a restart span is recorded by host.Core alone", PR: 16},
	{Kind: Once, Pattern: "Kind: obs.SpanSuspect", Reason: "a suspicion span is recorded by host.Core alone", PR: 16},
	{Kind: Once, Pattern: "Kind: obs.SpanCrashConfirm", Reason: "a crash-confirm span is recorded by host.Core alone", PR: 16},
	{Kind: Once, Pattern: "Inner() node.Handler }", Reason: "host.Core alone unwraps a process's interposers", PR: 16},
	{Kind: Once, Pattern: "ReliableStats() (int, int) }", Reason: "host.Core alone reads the reliable layer's counters", PR: 16},
	{Kind: Once, Pattern: "ByzStats() (int, int) }", Reason: "host.Core alone reads the byz layer's counters", PR: 16},
	{Kind: Once, Pattern: "reliable.Wrap(", Reason: "cluster.Build alone interposes the reliable layer, for either host", PR: 16},
	{Kind: Once, Pattern: "byz.Wrap(", Reason: "cluster.Build alone interposes the byz layer, for either host", PR: 16},
	{Kind: Once, Pattern: `"recovery="`, Reason: "host.Core alone notes a restart's recovery mode", PR: 16},
	// A message is numbered, received and lost, and a process checked, by
	// host.Core alone: the receive half, the send checks and the size and
	// process-id checks were each once written in both hosts.
	{Kind: Once, Pattern: "Kind: obs.SpanDeliver", Reason: "host.Core alone receives a message", PR: 35},
	{Kind: Once, Pattern: `Note: "receiver down"`, Reason: "host.Core alone loses a message at a down receiver", PR: 35},
	{Kind: Once, Pattern: "send to self not supported", Reason: "host.Core alone checks a send", PR: 35},
	{Kind: Once, Pattern: "more messages than a model.MsgID", Reason: "host.Core alone numbers a message", PR: 35},
	{Kind: Once, Pattern: "must be in 1..model.MaxProcs", Reason: "host.Core alone checks a host's size", PR: 35},
	{Kind: Once, Pattern: "for invalid process %d", Reason: "host.Core alone checks a process id", PR: 35},
	// The module's bit mixer and the protocol name table were each merged
	// from several copies.
	{Kind: Once, Pattern: ">> 30)) * 0xbf58476d1ce4e5b9", Reason: "the module has one bit mixer", PR: 17},
	{Kind: Once, Pattern: `{Unilateral, []string{"unilateral"}}`, Reason: "the module has one protocol name table", PR: 17},
	{Kind: Once, Pattern: "p.Tag == core.TagSusp && p.Subject == to {", Reason: "the Appendix A.3 parked-head delay is adversary.ParkedHeadDelay, which the sweep's park-ring schedule calls", PR: 30},

	{Kind: Retired, Pattern: `func \((n \*Net|lc \*LiveCluster)\) (Stats|ReliableStats|RecoveryStats|ByzStats)\(`, Scope: []string{"internal/runtime/runtime.go", "failstop.go"}, Reason: "a live counter leaves through Metrics() only: the per-layer accessors stay deleted", PR: 17},
	// A fault plan is wired into a simulator by cluster.New alone (the live
	// facade wires its own: the runtime takes the plane at construction), and
	// a run's configuration is checked by cluster.Options alone.
	{Kind: Count, Pattern: `netadv\.NewPlane\(`, Scope: []string{"internal/cluster/cluster.go"}, N: 1, Reason: "cluster.New alone wires a fault plan into a simulator", PR: 25},
	{Kind: Count, Pattern: `netadv\.NewPlane\(`, Scope: []string{"failstop.go"}, N: 1, Reason: "the live facade wires its own fault plan, once", PR: 16},
	{Kind: Retired, Pattern: `netadv\.NewPlane\(`, Scope: []string{"internal/sweep", "internal/experiments"}, Reason: "sweeps and experiments get their fault plane from cluster.New", PR: 25},
	{Kind: Retired, Pattern: `MaxTime (==|<=) 0`, Scope: []string{"failstop.go", "internal/sweep/sweep.go"}, Reason: "a missing horizon is judged by cluster.Options.CheckHorizon alone", PR: 30},
	{Kind: Count, Pattern: `MaxTime (==|<=) 0`, Scope: []string{"cmd/sfs-sim/main.go"}, N: 1, Reason: "sfs-sim tests a zero -maxtime once, to add the 5,000-tick horizon where Validate asks for one", PR: 30},
	{Kind: Retired, Pattern: `func (validateStack|stackConfig)`, Scope: []string{"failstop.go"}, Reason: "the facade translates its options once and cluster.Options checks them", PR: 25},
	// A fault plan's three rule kinds share one definition of each field
	// check, so they cannot disagree about what a valid tick or group is; the
	// hosts bound a lifetime's ticks with the same tick check.
	{Kind: Count, Pattern: `exceeds %d ticks`, Scope: []string{"internal/host", "internal/netadv"}, N: 2, Reason: "every tick a fault plan names, of any rule kind, or a lifetime names is bounded by one check (host.CheckTick); the other line is a timer's (host.Core.CheckTimer)", PR: 50},
	{Kind: Count, Pattern: `%d is empty`, Scope: []string{"internal/netadv"}, N: 1, Reason: "a partition's groups and an equivocation's groups are checked by one function (checkGroups)", PR: 50},
	// Neither host imports the other (the full import path: the standard
	// library has an internal/runtime of its own), and the shared core is
	// clock-free and lock-free.
	{Kind: Imports, Pattern: `failstop/internal/runtime`, Scope: []string{"internal/sim"}, Reason: "the simulator does not depend on the live runtime", PR: 16},
	{Kind: Imports, Pattern: `failstop/internal/sim`, Scope: []string{"internal/runtime"}, Reason: "the live runtime does not depend on the simulator", PR: 16},
	{Kind: Imports, Pattern: `^(time|sync)$`, Scope: []string{"internal/host"}, Direct: true, Reason: "the shared host core is clock-free and lock-free: it imports neither package itself", PR: 16},
	// The §5 detector keeps one id-ordered table of rounds, not a map per
	// aspect of a round; the sweep hands out jobs from one counter.
	{Kind: Retired, Pattern: `^\s+\w+\s+map\[model\.ProcID\]`, Scope: []string{"internal/core/core.go"}, Reason: "the §5 detector keeps one id-ordered table of rounds, not a map per aspect of a round", PR: 22},
	{Kind: Retired, Pattern: `chan job`, Scope: []string{"internal/sweep/sweep.go"}, Reason: "the sweep hands out jobs from one counter", PR: 22},
	{Kind: Count, Pattern: `for i := range h`, Scope: []string{"internal/model/index.go"}, N: 1, Reason: "a recorded run is read in one walk: a second loop over the history is the sizing pass come back (the two-walk scan is internal/model's test oracle)", PR: 23},
	{Kind: Retired, Pattern: `rand\.NewSource\(cfg\.Seed\)|rng\.Seed\(`, Scope: []string{"internal/sim"}, Reason: "the delay stream is seeded at its first draw (internal/sim/rng.go), not by New", PR: 24},
	{Kind: Retired, Pattern: `BinarySearchFunc`, Scope: []string{"internal/core/core.go"}, Reason: "the detector finds a round by walking its short table", PR: 24},
	{Kind: Retired, Pattern: `cluster\.New\(`, Scope: []string{"internal/experiments/exp_reliable.go", "internal/experiments/exp_recovery.go", "internal/experiments/exp_byz.go"}, Reason: "experiments that grid the stack's own axes (reliable, recovery, Byzantine) are sweeps: no hand-rolled cluster.New seed loop", PR: 27},
	// The interposers find per-peer and per-link state in node.Table, not in
	// a map keyed by process id or link; byz keeps two maps, keyed by the
	// sequence numbers and broadcast ids a Byzantine sender chooses: the
	// numbers beyond each sender's sequence window (seqSet.far, made only for
	// such a number) and one (origin, bid) index of witness rounds.
	{Kind: Retired, Pattern: `^\s+\w+(,\s*\w+)*\s+map\[(model\.ProcID|Link)\]`, Scope: []string{"internal/netadv/netadv.go", "internal/netadv/byz.go", "internal/reliable/reliable.go", "internal/fd/fd.go", "internal/byz/byz.go"}, Reason: "the interposers find per-peer and per-link state in node.Table", PR: 26},
	{Kind: Count, Pattern: `^\s+\w+(,\s*\w+)*\s+(node\.Table\[)?map\[`, Scope: []string{"internal/byz/byz.go", "internal/byz/seq.go"}, N: 2, Reason: "byz keeps two maps, keyed by the sequence numbers and broadcast ids a Byzantine sender chooses", PR: 26},
	// No delay bound tells a late network duplicate from a replay, so byz
	// discards a repeated frame and convicts no one on a timeout.
	{Kind: Retired, Pattern: `ReplayHorizon`, Scope: []string{"internal/byz"}, Reason: "a repeated frame is a duplicate however late it lands: byz has no replay timeout"},

	// Capabilities no command, experiment, sweep, facade or benchmark ever
	// set stay deleted.
	{Kind: Retired, Pattern: `type Adaptive struct`, Reason: "fd.Adaptive had no caller", PR: 28},
	{Kind: Retired, Pattern: `func NewPlaneAt\(`, Reason: "netadv.NewPlaneAt had no caller", PR: 28},
	{Kind: Retired, Pattern: `DeferAppSends`, Reason: "a knob nothing set", PR: 28},
	{Kind: Retired, Pattern: `Backoff\s+float64`, Reason: "a knob nothing set", PR: 28},
	{Kind: Retired, Pattern: `ReplayHorizon\s+int64`, Reason: "a knob nothing set", PR: 28},
	{Kind: Retired, Pattern: `ProgressEvery`, Reason: "a knob nothing set", PR: 28},
	{Kind: Retired, Pattern: `Store\s+recovery\.Store`, Scope: []string{"internal/sim"}, Reason: "a knob nothing set", PR: 28},
	{Kind: Retired, Pattern: `func parse(Grid|Protocols|Schedules|Plans|PlanFiles|Topos|Ints|Recovery|Reliable|Byzantine)\(`, Scope: []string{"cmd/sfs-sweep"}, Reason: "sfs-sweep's flags write straight into sweep.Spec through listFlag and modeFlag: the string-to-Spec translation helpers stay deleted", PR: 30},
	// Process and message ids are 32-bit, so a recorded event is 48 bytes and
	// every id fits a simulator record.
	{Kind: Retired, Pattern: `recWide`, Scope: []string{"internal/sim"}, Reason: "every id fits a simulator record: the wide-target record bit stays deleted", PR: 31},
	{Kind: Retired, Pattern: `wide\s+\[\]model\.ProcID`, Scope: []string{"internal/sim"}, Reason: "every id fits a simulator record: the wide-target side table stays deleted", PR: 31},
	{Kind: Retired, Pattern: `type ProcID int$`, Scope: []string{"internal/model"}, Reason: "process ids are 32-bit", PR: 31},
	{Kind: Retired, Pattern: `type MsgID int64`, Scope: []string{"internal/model"}, Reason: "message ids are 32-bit", PR: 31},
	// obs keeps what a run registers: counters and gauges owned by the layer
	// that counts them. Latency is read from the history.
	{Kind: Retired, Pattern: `KindHistogram`, Scope: []string{"internal/obs"}, Reason: "obs has no histogram kind: latency is read from the history", PR: 32},
	{Kind: Retired, Pattern: `type Histogram struct`, Scope: []string{"internal/obs"}, Reason: "obs has no histogram kind: latency is read from the history", PR: 32},
	{Kind: Retired, Pattern: `func \(r \*Registry\) (Counter|Gauge|Histogram)\(`, Scope: []string{"internal/obs"}, Reason: "a metric is registered by the layer that counts it: the get-or-create lookups stay deleted", PR: 32},
	{Kind: Retired, Pattern: `Summary\s+\*stats\.Summary`, Scope: []string{"internal/obs"}, Reason: "obs has no histogram summaries", PR: 32},
	// A sweep cell is built once, one axis at a time, into the options its
	// runs share.
	{Kind: Retired, Pattern: `qsize = 1`, Scope: []string{"internal/sweep"}, Reason: "a quorum below 1 is an error, not silently clamped", PR: 33},
	{Kind: Retired, Pattern: `for _, bo := range s.Byzantine`, Scope: []string{"internal/sweep"}, Reason: "a sweep cell grows one axis at a time: the nested axis loops stay deleted", PR: 33},
	// A live process wakes from one queue of its own deadlines.
	{Kind: Retired, Pattern: `AfterFunc`, Scope: []string{"internal/runtime"}, Reason: "a live process wakes from one queue of its own deadlines: no per-timer or per-send Go timers", PR: 34},
	{Kind: Retired, Pattern: `faultTimers`, Scope: []string{"internal/runtime"}, Reason: "a live process wakes from one queue of its own deadlines: no net-wide fault-timer list", PR: 34},
	{Kind: Retired, Pattern: `afterTicks`, Scope: []string{"internal/runtime"}, Reason: "a live process wakes from one queue of its own deadlines: no per-send Go timers", PR: 34},
	{Kind: Retired, Pattern: `revive`, Scope: []string{"internal/runtime"}, Reason: "a live process wakes from one queue of its own deadlines: no restart hand-off", PR: 34},
	{Kind: Retired, Pattern: `dueTimer`, Scope: []string{"internal/runtime"}, Reason: "a live process wakes from one queue of its own deadlines: no per-timer Go timers", PR: 34},
	{Kind: Retired, Pattern: `QuorumSets\(\)`, Scope: []string{"internal/cluster"}, Reason: "quorum sets are read from the history", PR: 34},
	{Kind: Retired, Pattern: `FD\s+func\(p model\.ProcID\)`, Scope: []string{"internal/cluster"}, Reason: "a stack's fd component is a heartbeat (HeartbeatEvery); tests that need another assemble it over a bare simulator with core.NewDetector", PR: 35},
	{Kind: Retired, Pattern: `nextMsg|checkProc`, Scope: []string{"internal/sim"}, Reason: "a message's id is its send's ordinal and ids are checked by host.Core: no host keeps its own counter or check", PR: 35},
	{Kind: Retired, Pattern: `nextMsg|checkProc`, Scope: []string{"internal/runtime"}, Reason: "a message's id is its send's ordinal and ids are checked by host.Core: no host keeps its own counter or check", PR: 35},
	{Kind: Retired, Pattern: `type LiveOptions struct`, Reason: "one Options describes a scenario for either host: NewLiveCluster takes it plus failstop.Live", PR: 36},
	{Kind: Retired, Pattern: `sfs-bench`, Reason: "the experiment runner is cmd/sfs-experiments, not to be confused with bench/, the performance benchmark", PR: 37},

	// The simulator records an event as the model.Event its history returns;
	// the suspicion tag and a timer's delay bound are each written once.
	{Kind: Retired, Pattern: `func \(s \*Sim\) tagID\(`, Scope: []string{"internal/sim"}, Reason: "an event keeps its own tag: the per-run tag table stays deleted", PR: 38},
	{Kind: Retired, Pattern: `type rec struct`, Scope: []string{"internal/sim"}, Reason: "a record page holds model.Events: the compact record and its per-field rebuild stay deleted", PR: 38},
	{Kind: Retired, Pattern: `(Tag\s*(==|!=|:)\s*|EmitInternal\(|Internal\([^,]+,\s*)"suspect"`, Reason: "the suspicion tag is model.TagSuspect, written out once, in internal/model", PR: 38},
	{Kind: Once, Pattern: "SetTimer delay %d exceeds", Reason: "host.Core alone bounds a timer's delay, for either host", PR: 38},
	// A step counts into its host's plain tally, which the host publishes into
	// the atomic counters: no message pays a locked add.
	// Since the host counters are one table, a counter reads Counters[host.Sent].
	{Kind: Retired, Pattern: `Sent\]?\.(Inc|Add)\(`, Reason: "a send is counted into a host.Tally with a plain add, not a locked one per message", PR: 39},
	{Kind: Retired, Pattern: `Delivered\]?\.(Inc|Add)\(`, Reason: "a receive is counted into a host.Tally with a plain add, not a locked one per message", PR: 39},
	// A payload is written once, by the host, into the place it is delivered
	// from: a routed copy only names it.
	{Kind: Retired, Pattern: `Wire\s+node\.Payload`, Scope: []string{"internal/host"}, Reason: "a routed copy names its payload (nil: the one sent) and never carries one by value", PR: 41},
	// The simulator writes a send's or a receive's event field by field into
	// its record page.
	{Kind: Retired, Pattern: `record\(model\.(Send|Recv)\(`, Scope: []string{"internal/sim"}, Reason: "a per-message event is written where it lands, never passed by value", PR: 43},
	// Retired bulks wait on one stack, and a process keeps its own declared
	// failures: nothing New empties scales with a run before it.
	{Kind: Retired, Pattern: `lastBulk|atomic\.Pointer\[bulk\]`, Scope: []string{"internal/sim"}, Reason: "retired bulks wait on one stack: no second holder beside it", PR: 44},
	{Kind: Retired, Pattern: `failed\s+map\[`, Scope: []string{"internal/sim"}, Reason: "failed_i(j) is single-shot through each process's own list: a run-wide map costs New what the largest run before it held", PR: 44},
	// Two interposer knobs that only tests set.
	{Kind: Retired, Pattern: `MaxInterval\s+int64`, Scope: []string{"internal/reliable"}, Reason: "a knob only tests set: the retry interval doubles up to 16 times RetryInterval", PR: 44},
	{Kind: Retired, Pattern: `Witnesses\s+int\b`, Scope: []string{"internal/byz"}, Reason: "a knob only tests set: a held frame waits for a majority of the n-1 receivers", PR: 44},
	// Detection latency has one definition per measure, read in the scan's
	// one walk; the byz layer holds one tag.
	{Kind: Retired, Pattern: `func detectionLatencies`, Scope: []string{"internal/experiments"}, Reason: "detection latency is model.Latencies' rows, read in the scan's one walk: no private reader of the history", PR: 45},
	{Kind: Retired, Pattern: `EchoTags`, Scope: []string{"internal/byz"}, Reason: "a knob only tests set: the byz layer holds the detector's SUSP frames and no others", PR: 45},
	// Each vocabulary the program names lives in one table. Inside
	// internal/obs the span kinds' list is written []SpanKind{, so this
	// pattern matches only a copy kept elsewhere.
	{Kind: Retired, Pattern: `\[\]obs\.SpanKind\{`, Reason: "the span kinds are listed once, as obs.SpanKinds: a private list drifts (sfs-check's lacked byz-detect)", PR: 51},
	// The complete graph has one representation, the nil *topo.Topology.
	{Kind: Retired, Pattern: `func \(t \*Topology\) IsFull\(`, Scope: []string{"internal/topo"}, Reason: "topo.New resolves a complete-graph spec to nil: no Topology is of the full kind", PR: 53},
	{Kind: Retired, Pattern: `\.IsFull\(\)`, Scope: []string{"internal/core", "internal/quorum", "internal/cluster", "internal/sweep", "failstop.go"}, Reason: "a topology is the complete graph exactly when it is nil: the layers test top != nil, and the facade and the sweep hand every spec to topo.New", PR: 53},
	// An interposer's shell is node.Layer: the inner handler's optional
	// interfaces are asked through node.Accepts, Snapshot, Restart and Crashed.
	{Kind: Retired, Pattern: `\.\(node\.(Gate|Restarter|CrashListener)\)`, Scope: []string{"internal/reliable", "internal/byz"}, Reason: "reliable and byz embed node.Layer and ask their inner handler's gate, snapshot, restart and crash hooks through node's functions: no type switch of their own"},
	// Heartbeats bypass every interposer by one rule, node.Layer's.
	{Kind: Retired, Pattern: `TagHeartbeat`, Scope: []string{"internal/reliable", "internal/byz"}, Reason: "node.Layer hands a heartbeat to the host past every interposer's Sender: no layer tests the tag itself"},
}
