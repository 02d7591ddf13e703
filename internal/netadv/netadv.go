// Package netadv is a composable network-adversary plane: it owns per-link
// fault state over virtual time and decides, per send, whether a message is
// delivered, dropped, duplicated, delayed, or reordered.
//
// The paper's §5 quorum protocol assumes reliable FIFO channels; netadv
// makes the network itself a first-class, scriptable adversary so that the
// scenario families a delay distribution cannot reach — split-brain
// partitions, isolated minorities, flaky links, healing partitions — become
// expressible. A Plan is a declarative, seed-deterministic timeline of
// Rules; a Plane instantiates a plan for a concrete cluster and implements
// node.LinkFn, so the same plan drives both the deterministic simulator
// (internal/sim) and the live goroutine runtime (internal/runtime) with
// identical semantics.
//
// Determinism. All randomness derives from (plan seed, link, per-link
// message index) via a splitmix64 stream: the k-th message on a directed
// link receives the same fate in every run with the same seed, regardless
// of host scheduling. In the simulator this makes whole runs byte-identical
// per seed; in the live runtime it makes fates a deterministic function of
// each link's message sequence even though that sequence interleaves
// nondeterministically across links.
package netadv

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/recovery"
	"failstop/internal/topo"
)

// Link is one directed channel from one process to another.
//
//sfs:wire
type Link struct {
	From model.ProcID `json:"from"`
	To   model.ProcID `json:"to"`
}

// LinkSet selects directed links. The zero value selects every link.
//
//sfs:wire
type LinkSet struct {
	// Groups partitions the processes: a link matches when its endpoints
	// lie in different groups. Processes not listed in any group form one
	// implicit residual group (so a single group isolates its members from
	// everyone else while leaving the rest fully connected).
	Groups [][]model.ProcID `json:"groups,omitempty"`
	// Pairs lists explicit directed links that match regardless of Groups.
	Pairs []Link `json:"pairs,omitempty"`
	// Regions and Racks select links that cross the named region's or rack's
	// boundary under the plan's hierarchical topology (Plan.Topo): a link
	// matches when exactly one endpoint lies inside the named region/rack —
	// the correlated-failure primitive ("region 1 loses its uplink") for
	// topology-aware plans. Indices are 0-based (topo.Topology.RegionOf and
	// RackOf). Requires Plan.Topo to name a "hier" topology.
	Regions []int `json:"regions,omitempty"`
	Racks   []int `json:"racks,omitempty"`
}

// Empty reports whether the set is the zero value (match everything).
func (ls LinkSet) Empty() bool {
	return len(ls.Groups) == 0 && len(ls.Pairs) == 0 &&
		len(ls.Regions) == 0 && len(ls.Racks) == 0
}

// Rule applies network faults to matching messages while active. Fault
// effects compose: a rule may simultaneously drop with probability Drop,
// duplicate with probability Duplicate, and jitter delays; multiple active
// rules all apply to the same message.
//
//sfs:wire
type Rule struct {
	// From and Until bound the active window in ticks: the rule applies to
	// sends at time at with From <= at, and (when Until > 0) at < Until.
	// Until 0 means the rule never expires; a partition with Until set is a
	// partition with a scheduled heal.
	From  int64 `json:"from,omitempty"`
	Until int64 `json:"until,omitempty"`
	// Links selects the directed links the rule applies to. The zero value
	// applies to every link.
	Links LinkSet `json:"links,omitempty"`
	// Tags restricts the rule to messages with these payload tags (e.g.
	// only the quorum protocol's "j failed" traffic). Empty = all messages.
	Tags []string `json:"tags,omitempty"`
	// Cut drops every matching message: the lossy-partition primitive.
	// Nothing is retransmitted after a heal — a protocol that broadcasts
	// once (like §5) permanently loses what it sent into the cut.
	Cut bool `json:"cut,omitempty"`
	// Hold delays every matching message until the rule's window closes
	// (requires Until > 0 or a periodic window): the buffering-partition
	// primitive, modeling links that retransmit until connectivity returns.
	// Messages sent into the partition arrive just after the heal instead
	// of being lost.
	Hold bool `json:"hold,omitempty"`
	// Drop is the probability a matching message is discarded.
	Drop float64 `json:"drop,omitempty"`
	// Duplicate is the probability the network delivers one extra copy.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability the message overtakes the message queued
	// immediately ahead of it on the same link (a pairwise FIFO violation).
	Reorder float64 `json:"reorder,omitempty"`
	// JitterMax adds a uniform extra delay in [0, JitterMax] ticks to every
	// delivered copy of a matching message.
	JitterMax int64 `json:"jitter_max,omitempty"`
	// Period, when positive, makes the rule's window repeat: the rule is
	// active at time at iff From <= at (and at < Until when Until is set)
	// and (at - From) mod Period < ActiveFor. Periodic rules are the
	// rule-timeline primitive behind dynamic plans: several periodic rules
	// with staggered From offsets rotate a cut through the cluster (see the
	// moving-partition builtin and examples/plans/rolling-blackout.json).
	Period int64 `json:"period,omitempty"`
	// ActiveFor is the length of each active window within a Period, in
	// ticks. Required (0 < ActiveFor <= Period) when Period is set.
	ActiveFor int64 `json:"active_for,omitempty"`
	// QueueDelay, when positive, shapes the link's bandwidth: each matching
	// message occupies the link for QueueDelay ticks, and a message sent
	// while earlier ones still occupy it waits for that backlog to drain
	// first (its extra delay grows linearly with the link's in-flight queue
	// depth). The backlog is tracked per (rule, link) in the Plane. Every
	// matching send is charged, including messages some rule ultimately
	// drops — a lossy shaped link still spends serialization time on the
	// frames it loses.
	QueueDelay int64 `json:"queue_delay,omitempty"`
}

// noop reports whether the rule has no fault effect at all. A rule that
// matches traffic but does nothing is almost certainly an authoring typo
// (e.g. a misspelled field a strict decoder did not catch), so Validate
// rejects it.
func (r Rule) noop() bool {
	return !r.Cut && !r.Hold && r.Drop == 0 && r.Duplicate == 0 &&
		r.Reorder == 0 && r.JitterMax == 0 && r.QueueDelay == 0
}

// ProcRule is one process-fault entry of a plan's timeline: it crashes a
// process at a scheduled time and optionally restarts it later — the
// crash-recovery primitive of internal/recovery. Process faults are pure
// schedule data: the hosts (internal/sim and internal/runtime) execute
// them, not the Plane, because crashing a process is a lifecycle event,
// not a per-message fate.
//
// One-shot rules (Period == 0) crash Proc at CrashAt and, when RestartAt
// is nonzero, restart it at RestartAt; RestartAt == 0 is a terminal crash.
// Periodic rules (Period > 0) are restart storms: Proc crashes at
// CrashAt + k·Period and restarts ActiveFor ticks after each crash
// (ActiveFor is the downtime window, mirroring Rule's periodic fields);
// Until, when nonzero, bounds the crash times.
//
// What a restarted process remembers is not the plan's business: the host
// applies its configured recovery mode (off/amnesia/durable) to every
// restart the plan schedules.
//
//sfs:wire
type ProcRule struct {
	// Proc is the process the rule crashes and restarts.
	Proc model.ProcID `json:"proc"`
	// CrashAt is the (first) crash time in ticks.
	CrashAt int64 `json:"crash_at"`
	// RestartAt is the restart time for a one-shot rule; 0 means the crash
	// is terminal. Invalid with a Period (ActiveFor drives periodic
	// restarts).
	RestartAt int64 `json:"restart_at,omitempty"`
	// Period, when positive, repeats the crash every Period ticks.
	Period int64 `json:"period,omitempty"`
	// ActiveFor is the downtime after each periodic crash, in ticks.
	// Required (0 < ActiveFor < Period) when Period is set: the process
	// must come back up before its next scheduled crash.
	ActiveFor int64 `json:"active_for,omitempty"`
	// Until, when nonzero, is the last tick at which a periodic crash may
	// fire. Invalid without a Period.
	Until int64 `json:"until,omitempty"`
}

// terminal reports whether the rule leaves the process down forever.
func (r ProcRule) terminal() bool { return r.Period == 0 && r.RestartAt == 0 }

// Lifetime converts the rule into the host-facing normalized form.
func (r ProcRule) Lifetime() recovery.Lifetime {
	lt := recovery.Lifetime{Proc: r.Proc, Crash: r.CrashAt, Restart: r.RestartAt}
	if r.Period > 0 {
		lt.Restart = r.CrashAt + r.ActiveFor
		lt.Period = r.Period
		lt.Until = r.Until
	}
	return lt
}

// Plan is a declarative, seed-deterministic fault timeline for a cluster's
// network and its processes. Plans are pure data: instantiate the network
// part per run with NewPlane (the hosts execute the process part via
// Lifetimes). Plans are also the plan-file format of sfs-sim -plan-file.
//
//sfs:wire
type Plan struct {
	// Name identifies the plan in reports and trace headers.
	Name string `json:"name,omitempty"`
	// Topo, when non-nil, is the topology the plan's region/rack link
	// selectors resolve against (it must describe the same spec the cluster
	// itself runs). Required by any rule using LinkSet.Regions or Racks;
	// plans without such rules may omit it.
	Topo *topo.Spec `json:"topo,omitempty"`
	// Rules is the network fault timeline. Rules are evaluated in order on
	// every send; all active matching rules apply.
	Rules []Rule `json:"rules,omitempty"`
	// Procs is the process fault timeline: scheduled crashes and restarts,
	// executed by the hosts under their configured recovery mode.
	Procs []ProcRule `json:"procs,omitempty"`
	// Byz is the Byzantine fault timeline: per-victim payload corruption,
	// equivocation, and replay (see ByzRule).
	Byz []ByzRule `json:"byz,omitempty"`
}

// Empty reports whether the plan imposes no faults at all.
func (p Plan) Empty() bool {
	return len(p.Rules) == 0 && len(p.Procs) == 0 && len(p.Byz) == 0
}

// Lifetimes returns the plan's process-fault schedule in the normalized
// host form, in plan order.
func (p Plan) Lifetimes() []recovery.Lifetime {
	if len(p.Procs) == 0 {
		return nil
	}
	out := make([]recovery.Lifetime, len(p.Procs))
	for i, r := range p.Procs {
		out[i] = r.Lifetime()
	}
	return out
}

// Validate reports the first problem with the plan for a cluster of n
// processes, or nil. Process-fault rules are checked structurally:
// restarts without a crash window, overlapping lifetimes for one process,
// and storm windows that never bring the process back are all rejected.
// One hazard is inherently dynamic and guarded by the hosts instead: a
// scheduled restart of a process the protocol itself crashed (the §5
// crash-on-own-SUSP victim) is skipped at run time — a protocol-level
// crash is terminal by definition.
func (p Plan) Validate(n int) error {
	var top *topo.Topology
	if p.Topo != nil {
		var err error
		if top, err = topo.New(*p.Topo, n); err != nil {
			return fmt.Errorf("netadv: plan %q: topology: %v", p.Name, err)
		}
		if p.Topo.Kind != topo.KindHier {
			// Plan.Topo exists to resolve region/rack selectors, and only
			// hierarchical topologies define regions and racks.
			return fmt.Errorf("netadv: plan %q: Topo kind %q has no regions or racks (only %q does)", p.Name, p.Topo.Kind, topo.KindHier)
		}
	}
	for i, r := range p.Rules {
		if err := r.validate(n, top); err != nil {
			return p.ruleError("rule", i, err)
		}
	}
	byProc := make(map[model.ProcID][]int)
	for i, r := range p.Procs {
		if err := r.validate(n); err != nil {
			return p.ruleError("proc rule", i, err)
		}
		byProc[r.Proc] = append(byProc[r.Proc], i)
	}
	// Cross-rule checks, per process in id order for deterministic errors.
	for proc := model.ProcID(1); int(proc) <= n; proc++ {
		idxs := byProc[proc]
		if len(idxs) < 2 {
			continue
		}
		for _, i := range idxs {
			if p.Procs[i].Period > 0 {
				return p.ruleError("proc rule", i, fmt.Errorf("process %d has a periodic rule and %d other rule(s); a storm must be the process's only rule", proc, len(idxs)-1))
			}
		}
		// All one-shot: lifetimes must be disjoint, and only the
		// chronologically last may be terminal. Order by crash time — plan
		// order need not be chronological.
		sort.Slice(idxs, func(a, b int) bool {
			return p.Procs[idxs[a]].CrashAt < p.Procs[idxs[b]].CrashAt
		})
		for k := 1; k < len(idxs); k++ {
			prev, cur := p.Procs[idxs[k-1]], p.Procs[idxs[k]]
			if prev.terminal() {
				return p.ruleError("proc rule", idxs[k], fmt.Errorf("process %d crashes at %d after rule %d crashed it terminally", proc, cur.CrashAt, idxs[k-1]))
			}
			if cur.CrashAt <= prev.RestartAt {
				return p.ruleError("proc rule", idxs[k], fmt.Errorf("process %d crashes at %d while rule %d holds it down until %d (overlapping lifetimes)", proc, cur.CrashAt, idxs[k-1], prev.RestartAt))
			}
		}
	}
	for i, b := range p.Byz {
		if err := p.validateByz(b, n); err != nil {
			return p.ruleError("byz rule", i, err)
		}
	}
	return nil
}

// ruleError names the rule a check refused: rule kind, index and plan.
func (p Plan) ruleError(kind string, i int, err error) error {
	return fmt.Errorf("netadv: %s %d of plan %q: %w", kind, i, p.Name, err)
}

// validate checks one network rule for a cluster of n processes whose
// topology, if the plan names one, is top.
func (r Rule) validate(n int, top *topo.Topology) error {
	if err := cmp.Or(
		host.CheckTick("From", r.From), host.CheckTick("Until", r.Until), host.CheckTick("Period", r.Period),
		host.CheckTick("JitterMax", r.JitterMax), host.CheckTick("QueueDelay", r.QueueDelay),
		checkWindow(r.From, r.Until),
		checkProb("Drop", r.Drop), checkProb("Duplicate", r.Duplicate), checkProb("Reorder", r.Reorder),
		checkPeriod(r.Period, r.ActiveFor, r.Period),
		checkTags(r.Tags),
		checkGroups(r.Links.Groups, n, model.None, "group"),
	); err != nil {
		return err
	}
	switch {
	case r.Cut && r.Hold:
		// Decide would drop the message and then compute a hold delay for a
		// copy that no longer exists: Cut silently wins. Reject the
		// contradiction instead of picking a winner.
		return errors.New("Cut and Hold are contradictory (Cut loses the message, Hold promises to deliver it)")
	case r.Hold && r.Until == 0 && r.Period == 0:
		return errors.New("Hold requires a heal time (Until > 0 or a periodic window)")
	case r.Hold && r.Period > 0 && r.ActiveFor >= r.Period:
		// With ActiveFor == Period the window never actually closes: healAt
		// would release held messages into the still-active hold, breaking
		// the "arrives just after the heal" guarantee.
		return errors.New("Hold with a periodic window needs ActiveFor < Period (a window that never closes never heals)")
	case r.noop():
		return errors.New("no effect (none of Cut/Hold/Drop/Duplicate/Reorder/JitterMax/QueueDelay set)")
	}
	for _, l := range r.Links.Pairs {
		if l.From < 1 || int(l.From) > n || l.To < 1 || int(l.To) > n {
			return fmt.Errorf("link %d->%d outside 1..%d", l.From, l.To, n)
		}
	}
	if len(r.Links.Regions) > 0 || len(r.Links.Racks) > 0 {
		if top == nil {
			return errors.New("region/rack selectors need the plan's Topo set")
		}
		for _, reg := range r.Links.Regions {
			if reg < 0 || reg >= top.Regions() {
				return fmt.Errorf("region %d outside 0..%d", reg, top.Regions()-1)
			}
		}
		for _, rk := range r.Links.Racks {
			if rk < 0 || rk >= top.NumRacks() {
				return fmt.Errorf("rack %d outside 0..%d", rk, top.NumRacks()-1)
			}
		}
	}
	return nil
}

// validate checks one process rule for a cluster of n processes.
func (r ProcRule) validate(n int) error {
	if r.Proc < 1 || int(r.Proc) > n {
		return fmt.Errorf("process %d outside 1..%d", r.Proc, n)
	}
	if err := cmp.Or(
		host.CheckTick("CrashAt", r.CrashAt), host.CheckTick("RestartAt", r.RestartAt), host.CheckTick("Period", r.Period),
		host.CheckTick("ActiveFor", r.ActiveFor), host.CheckTick("Until", r.Until),
		checkPeriod(r.Period, r.ActiveFor, r.Period-1),
		// A periodic rule's first restart, its Lifetime's Restart, is a tick
		// the host bounds too. Each summand is bounded above, so it cannot wrap.
		host.CheckTick("CrashAt+ActiveFor", r.CrashAt+r.ActiveFor),
	); err != nil {
		return err
	}
	switch {
	case r.Period == 0 && r.Until != 0:
		return fmt.Errorf("Until %d without a Period (one-shot rules have nothing to bound)", r.Until)
	case r.Period == 0 && r.RestartAt != 0 && r.RestartAt <= r.CrashAt:
		return fmt.Errorf("RestartAt %d not after CrashAt %d", r.RestartAt, r.CrashAt)
	case r.Period > 0 && r.RestartAt != 0:
		return fmt.Errorf("RestartAt %d with a Period (periodic windows restart ActiveFor ticks after each crash)", r.RestartAt)
	case r.Period > 0 && r.Until != 0 && r.Until < r.CrashAt:
		return fmt.Errorf("Until %d before the first CrashAt %d", r.Until, r.CrashAt)
	}
	return nil
}

// checkWindow refuses an Until (0: never) that does not come after From.
func checkWindow(from, until int64) error {
	if until != 0 && until <= from {
		return fmt.Errorf("Until %d not after From %d", until, from)
	}
	return nil
}

// checkProb refuses a probability outside [0,1].
func checkProb(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("%s=%v outside [0,1]", name, v)
	}
	return nil
}

// checkPeriod refuses an ActiveFor without a Period, and a Period whose
// ActiveFor lies outside 1..most.
func checkPeriod(period, activeFor, most int64) error {
	if period == 0 && activeFor != 0 {
		return fmt.Errorf("ActiveFor %d without a Period", activeFor)
	}
	if period > 0 && (activeFor <= 0 || activeFor > most) {
		return fmt.Errorf("Period %d needs ActiveFor in 1..%d, have %d", period, most, activeFor)
	}
	return nil
}

// checkTags refuses an empty tag, which no payload carries, and a repeated
// one: either is an authoring typo.
func checkTags(tags []string) error {
	for i, tag := range tags {
		if tag == "" {
			return errors.New("empty tag never matches any message")
		}
		if slices.Contains(tags[:i], tag) {
			return fmt.Errorf("duplicate tag %q", tag)
		}
	}
	return nil
}

// checkGroups refuses, in a split into groups (what names one in errors), an
// empty group, which compiles to nothing, a process outside 1..n or equal to
// victim, and one listed twice, which compileGroups would resolve last-wins.
func checkGroups(groups [][]model.ProcID, n int, victim model.ProcID, what string) error {
	seen := make(map[model.ProcID]int)
	for gi, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("%s %d is empty", what, gi)
		}
		for _, proc := range g {
			switch prev, dup := seen[proc]; {
			case proc < 1 || int(proc) > n:
				return fmt.Errorf("process %d outside 1..%d", proc, n)
			case proc == victim:
				return fmt.Errorf("victim %d cannot be its own receiver group member", proc)
			case dup && prev == gi:
				return fmt.Errorf("process %d listed twice in %s %d", proc, what, gi)
			case dup:
				return fmt.Errorf("process %d in both %s %d and group %d", proc, what, prev, gi)
			}
			seen[proc] = gi
		}
	}
	return nil
}

// compiledRule is a Rule with its link selectors resolved into constant-time
// lookups; its Tags, a short list, are scanned.
type compiledRule struct {
	Rule
	groupOf node.Table[int]      // proc -> group index; absent = residual
	pairs   node.Table[struct{}] // the Pairs links
	top     *topo.Topology       // resolves Regions/Racks selectors; nil otherwise
	// busyUntil is, per directed link, the virtual time at which the link's
	// in-flight backlog under the rule's QueueDelay drains: each charged
	// message occupies the link for QueueDelay ticks, so the current queue
	// depth is ceil((busyUntil - now) / QueueDelay).
	busyUntil node.Table[int64]
}

func (cr *compiledRule) activeAt(at int64) bool {
	return inWindow(at, cr.From, cr.Until) && (cr.Period == 0 || (at-cr.From)%cr.Period < cr.ActiveFor)
}

// inWindow reports whether tick at lies in a window [from, until) (until 0: ∞).
func inWindow(at, from, until int64) bool {
	return at >= from && (until == 0 || at < until)
}

// tagMatches reports whether a rule's Tags select tag; no Tags select all.
func tagMatches(tags []string, tag string) bool {
	return len(tags) == 0 || slices.Contains(tags, tag)
}

// healAt returns when a Hold rule active at time at releases its messages:
// the end of the current periodic window, clamped by Until. Only meaningful
// when activeAt(at) holds.
func (cr *compiledRule) healAt(at int64) int64 {
	heal := cr.Until
	if cr.Period > 0 {
		end := cr.From + (at-cr.From)/cr.Period*cr.Period + cr.ActiveFor
		if heal == 0 || end < heal {
			heal = end
		}
	}
	return heal
}

func (cr *compiledRule) matches(from, to model.ProcID, tag string) bool {
	if !tagMatches(cr.Tags, tag) {
		return false
	}
	if cr.Links.Empty() {
		return true
	}
	if cr.pairs.GetLink(from, to) != nil {
		return true
	}
	if cr.top != nil {
		// A link crosses a region/rack boundary when exactly one endpoint
		// lies inside it.
		for _, reg := range cr.Links.Regions {
			if (cr.top.RegionOf(from) == reg) != (cr.top.RegionOf(to) == reg) {
				return true
			}
		}
		for _, rk := range cr.Links.Racks {
			if (cr.top.RackOf(from) == rk) != (cr.top.RackOf(to) == rk) {
				return true
			}
		}
	}
	if cr.groupOf.Len() > 0 {
		return groupIndex(&cr.groupOf, from) != groupIndex(&cr.groupOf, to)
	}
	return false
}

// groupIndex returns p's group in a compiled group selector: its index, or -1
// for the residual group of processes no group lists.
func groupIndex(groups *node.Table[int], p model.ProcID) int {
	if g := groups.Get(p); g != nil {
		return *g
	}
	return -1
}

// compileGroups resolves process groups into the table groupIndex reads.
func compileGroups(groups [][]model.ProcID) node.Table[int] {
	var t node.Table[int]
	for gi, g := range groups {
		for _, proc := range g {
			rec, _ := t.Add(proc)
			*rec = gi
		}
	}
	return t
}

// Plane is a Plan instantiated for one run of a concrete cluster: it tracks
// per-link message indices and derives every probabilistic fate from them
// and the seed. A Plane is goroutine-safe and implements node.LinkFn via
// its Decide method.
//
// What the plane remembers per directed link — the message index here, a
// shaping backlog or a replay memory in the rule that keeps it — sits in a
// node.Table keyed by the link and made on the link's first use, so a run
// pays for the links its processes actually use. The mutex guards every
// one of those tables.
type Plane struct {
	plan     Plan
	n        int
	seed     int64
	rules    []compiledRule
	byzRules []compiledByz

	mu  sync.Mutex
	seq node.Table[uint64] // per directed link: the messages it has carried

	fates [numFates]obs.Counter
}

// The plane's fate counters, indices into Plane.fates in name order. The
// network fates are counted once per decided message from the final decision
// (never per rule), so composed rules do not double-count. The Byzantine
// fates lead, and are registered and reported only for plans that carry Byz
// rules (so byz-free runs keep byte-identical metrics).
const (
	fateCorrupted = iota
	fateEquivocated
	fateReplayed
	fateDecided
	fateDropped
	fateDuplicated
	fateExtraDelay // total extra-delay ticks assigned
	fateHeld
	fateReordered
	numFates
)

// fateNames are the names the plane's fate counters report under.
var fateNames = [numFates]string{
	"plane_byz_corrupted_total",
	"plane_byz_equivocated_total",
	"plane_byz_replayed_total",
	"plane_decided_total",
	"plane_dropped_total",
	"plane_duplicated_total",
	"plane_extra_delay_ticks_total",
	"plane_held_ticks_total",
	"plane_reordered_total",
}

// NewPlane instantiates plan for a cluster of n processes, deriving all
// randomness from seed. It panics if the plan does not validate — plans are
// authored, not computed, so an invalid one is a programming error.
func NewPlane(plan Plan, n int, seed int64) *Plane {
	if err := plan.Validate(n); err != nil {
		panic(err)
	}
	pl := &Plane{plan: plan, n: n, seed: seed, seq: node.NewLinkTable[uint64](n)}
	var top *topo.Topology
	if plan.Topo != nil {
		top = topo.MustNew(*plan.Topo, n) // validated above
	}
	for _, r := range plan.Rules {
		cr := compiledRule{Rule: r}
		cr.groupOf = compileGroups(r.Links.Groups)
		cr.busyUntil = node.NewLinkTable[int64](n)
		cr.pairs = node.NewLinkTable[struct{}](n)
		for _, l := range r.Links.Pairs {
			cr.pairs.AddLink(l.From, l.To)
		}
		if len(r.Links.Regions) > 0 || len(r.Links.Racks) > 0 {
			cr.top = top
		}
		pl.rules = append(pl.rules, cr)
	}
	for _, b := range plan.Byz {
		cb := compiledByz{ByzRule: b}
		cb.groupOf = compileGroups(b.Equivocate)
		cb.replayMem = node.NewLinkTable[node.Payload](n)
		pl.byzRules = append(pl.byzRules, cb)
	}
	return pl
}

// firstFate is the first of the fates the plane reports: the Byzantine ones
// only for a plan that carries Byz rules.
func (pl *Plane) firstFate() int {
	if len(pl.plan.Byz) == 0 {
		return fateDecided
	}
	return fateCorrupted
}

// Register exposes the plane's fate counters through reg under plane_*
// names. A no-op on a nil registry.
func (pl *Plane) Register(reg *obs.Registry) {
	for f := pl.firstFate(); f < numFates; f++ {
		reg.RegisterCounter(fateNames[f], &pl.fates[f])
	}
}

// Metrics returns a name-sorted snapshot of the plane's fate counters.
func (pl *Plane) Metrics() obs.Metrics {
	first := pl.firstFate()
	ms := make(obs.Metrics, 0, numFates-first)
	for f := first; f < numFates; f++ {
		ms = append(ms, obs.Metric{Name: fateNames[f], Kind: obs.KindCounter, Value: pl.fates[f].Value()})
	}
	return ms
}

// count tallies the final decision of one message. It reads no PRNG state,
// so observing a run cannot perturb its fates.
func (pl *Plane) count(dec node.LinkDecision, held int64) {
	pl.fates[fateDecided].Inc()
	if dec.Drop {
		pl.fates[fateDropped].Inc()
	}
	if held > 0 {
		pl.fates[fateHeld].Add(held)
	}
	if dec.Duplicates > 0 {
		pl.fates[fateDuplicated].Add(int64(dec.Duplicates))
	}
	if dec.Reorder {
		pl.fates[fateReordered].Inc()
	}
	if dec.ExtraDelay > 0 {
		pl.fates[fateExtraDelay].Add(dec.ExtraDelay)
	}
}

// Decide implements node.LinkFn: the fate of the message currently being
// sent from from to to at time at.
func (pl *Plane) Decide(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
	var dec node.LinkDecision
	// Consume the link's sequence index unconditionally — even for messages
	// no rule touches — so that a message's stream depends only on its
	// position in the link's send sequence, never on how rule windows
	// happened to line up with (wall-clock-derived) send times. This is
	// what keeps fates reproducible on the live runtime.
	pl.mu.Lock()
	seq, _ := pl.seq.AddLink(from, to)
	idx := *seq
	*seq++
	pl.mu.Unlock()

	// Fast path: no rule (network or Byzantine) is active and matching.
	anyMatch := false
	for i := range pl.rules {
		if pl.rules[i].activeAt(at) && pl.rules[i].matches(from, to, p.Tag) {
			anyMatch = true
			break
		}
	}
	anyByz := false
	for i := range pl.byzRules {
		if pl.byzRules[i].matches(from, p.Tag, at) {
			anyByz = true
			break
		}
	}
	if !anyMatch && !anyByz {
		pl.count(dec, 0)
		return dec
	}

	var held int64
	if anyMatch {
		rng := newStream(pl.seed, from, to, idx)
		for i := range pl.rules {
			cr := &pl.rules[i]
			// Consume the stream identically whether or not the rule is
			// active, so a rule expiring does not shift the fates other rules
			// assign to later messages on the link.
			drop := rng.float64()
			dup := rng.float64()
			reord := rng.float64()
			jit := rng.uint64()
			if !cr.activeAt(at) || !cr.matches(from, to, p.Tag) {
				continue
			}
			if cr.Cut || drop < cr.Drop {
				dec.Drop = true
			}
			if cr.Hold {
				// Deliver no earlier than the heal (the end of the current
				// window): the base delay is >= 0, so pushing the extra delay
				// to (heal - at) suffices.
				if hold := cr.healAt(at) - at; hold > dec.ExtraDelay {
					dec.ExtraDelay = hold
					held = hold
				}
			}
			if dup < cr.Duplicate {
				dec.Duplicates++
			}
			if reord < cr.Reorder {
				dec.Reorder = true
			}
			if cr.JitterMax > 0 {
				dec.ExtraDelay += int64(jit % uint64(cr.JitterMax+1))
			}
			if cr.QueueDelay > 0 {
				dec.ExtraDelay += pl.shape(cr, from, to, at)
			}
		}
	}
	pl.applyByz(&dec, from, to, p, idx, at)
	pl.count(dec, held)
	return dec
}

// shape charges one message of QueueDelay ticks of link time against rule
// cr's queue on the link from → to and returns how long the message waits
// for the backlog ahead of it to drain. The wait is a pure function of the
// link's send times, not of the PRNG stream, so shaping composes with the
// probabilistic fates without shifting them.
func (pl *Plane) shape(cr *compiledRule, from, to model.ProcID, at int64) int64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	busy, _ := cr.busyUntil.AddLink(from, to)
	wait := max(*busy-at, 0)
	*busy = at + wait + cr.QueueDelay
	return wait
}

// stream is a tiny deterministic PRNG (splitmix64) seeded from the plane
// seed, the link, and the per-link message index. It is allocation-free and
// platform-independent, unlike math/rand, so fates are stable everywhere.
type stream struct{ x uint64 }

func newStream(seed int64, from, to model.ProcID, idx uint64) stream {
	x := uint64(seed)
	x = model.Mix(x ^ uint64(from)*0x9e3779b97f4a7c15)
	x = model.Mix(x ^ uint64(to)*0xbf58476d1ce4e5b9)
	x = model.Mix(x ^ idx*0x94d049bb133111eb)
	return stream{x: x}
}

func (s *stream) uint64() uint64 {
	s.x = model.Mix(s.x)
	return s.x
}

// float64 returns a uniform value in [0, 1).
func (s *stream) float64() float64 {
	return float64(s.uint64()>>11) / (1 << 53)
}
