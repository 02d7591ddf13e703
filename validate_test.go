package failstop_test

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"failstop"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/sim"
	"failstop/internal/sweep"
	"failstop/internal/topo"
)

// TestEntryPointsAgree: a single run's configuration comes in through the
// facade's Options to NewCluster and NewLiveCluster (where the row is not a
// horizon rule), a one-cell sweep Spec and cluster.Options itself, and the
// rules it must meet are stated once, in cluster.Options. So every entry
// point that can express a row accepts it, or every one rejects it naming
// the same field. The sweep
// used to restate the rules, and the copies drifted: it compared MaxTime == 0
// where the facade said <= 0 and never rejected a negative value.
func TestEntryPointsAgree(t *testing.T) {
	storm, err := failstop.BuiltinFaultPlan("restart-storm", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	fits := &failstop.FaultPlan{Name: "fits", Rules: []failstop.FaultRule{{From: 5, Cut: true,
		Links: failstop.LinkSet{Groups: [][]failstop.ProcID{{1, 2}, {3, 4}}}}}}
	tooBig := &failstop.FaultPlan{Name: "too-big", Rules: []failstop.FaultRule{{Cut: true,
		Links: failstop.LinkSet{Groups: [][]failstop.ProcID{{1, 9}}}}}}
	on := failstop.ReliableOptions{Enabled: true}
	cases := []struct {
		name      string
		opts      failstop.Options // N 5 and T 2 unless set
		maxEvents int              // a sweep Spec and cluster.Options only
		link      bool             // a hand-set Sim.Link: cluster.Options only
		simOnly   bool             // a horizon rule: a live run ends at Stop
		field     string           // named by every entry point; "" means all accept
	}{
		{name: "more processes than a history names", opts: failstop.Options{N: model.MaxProcs + 1, T: 1}, field: "N"},
		{name: "negative MaxTime", opts: failstop.Options{MaxTime: -5}, field: "MaxTime"},
		{name: "zero MaxTime", opts: failstop.Options{}},
		{name: "negative MaxEvents", maxEvents: -5, field: "MaxEvents"},
		{name: "positive MaxEvents", maxEvents: 100},
		{name: "negative HeartbeatEvery", opts: failstop.Options{HeartbeatEvery: -3, HeartbeatTimeout: 5, MaxTime: 100}, field: "HeartbeatEvery"},
		{name: "negative HeartbeatTimeout", opts: failstop.Options{HeartbeatEvery: 5, HeartbeatTimeout: -5, MaxTime: 100}, field: "HeartbeatTimeout"},
		{name: "heartbeats with a horizon", opts: failstop.Options{HeartbeatEvery: 5, HeartbeatTimeout: 20, MaxTime: 100}},
		{name: "negative delay bound", opts: failstop.Options{MinDelay: -5, MaxDelay: -1}, field: "MinDelay"},
		{name: "delay bounds", opts: failstop.Options{MinDelay: 1, MaxDelay: 10}},
		{name: "heartbeats with no horizon", opts: failstop.Options{HeartbeatEvery: 5, HeartbeatTimeout: 20}, simOnly: true, field: "HeartbeatEvery"},
		{name: "retransmission with no horizon", opts: failstop.Options{Reliable: on}, simOnly: true, field: "Reliable"},
		{name: "retransmission with a horizon", opts: failstop.Options{Reliable: on, MaxTime: 100}},
		{name: "bounded retransmission", opts: failstop.Options{Reliable: failstop.ReliableOptions{Enabled: true, MaxRetries: 3}}},
		{name: "restart storm with no horizon", opts: failstop.Options{Faults: &storm, Recovery: failstop.RecoveryAmnesia}, simOnly: true, field: "Faults"},
		{name: "restart storm with a horizon", opts: failstop.Options{Faults: &storm, Recovery: failstop.RecoveryAmnesia, MaxTime: 3000}},
		{name: "restart storm without recovery", opts: failstop.Options{Faults: &storm}},
		{name: "plan that does not fit n", opts: failstop.Options{Faults: tooBig}, field: "Faults"},
		{name: "plan that fits n", opts: failstop.Options{Faults: fits}},
		{name: "plan with a hand-set Sim.Link", opts: failstop.Options{Faults: fits}, link: true, field: "Faults"},
		{name: "topology that does not fit n", opts: failstop.Options{Topology: &failstop.TopoSpec{Kind: failstop.TopoGossip, Fanout: 9}}, field: "Topology"},
		{name: "topology that fits n", opts: failstop.Options{Topology: &failstop.TopoSpec{Kind: failstop.TopoGossip, Fanout: 2}}},
		{name: "invalid reliable options", opts: failstop.Options{Reliable: failstop.ReliableOptions{Enabled: true, MaxRetries: -1}}, field: "Reliable"},
		{name: "valid interposers", opts: failstop.Options{Reliable: failstop.ReliableOptions{Enabled: true, MaxRetries: 2}, Byzantine: failstop.ByzantineOptions{Enabled: true}}},
	}
	field := regexp.MustCompile(`^[A-Za-z]+`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			if o.N == 0 {
				o.N, o.T = 5, 2
			}
			type entry struct {
				name, prefix string
				err          error
			}
			var entries []entry
			if tc.maxEvents == 0 && !tc.link {
				entries = append(entries, entry{"Options", "failstop: Options.", o.Validate()})
			}
			if tc.maxEvents == 0 && !tc.link && !tc.simOnly {
				_, err := failstop.NewLiveCluster(o, failstop.Live{})
				entries = append(entries, entry{"NewLiveCluster", "failstop: Options.", err})
			}
			if !tc.link {
				spec := sweep.Spec{
					Grid:     []sweep.NT{{N: o.N, T: o.T}},
					MinDelay: o.MinDelay, MaxDelay: o.MaxDelay, MaxTime: o.MaxTime, MaxEvents: tc.maxEvents,
					HeartbeatEvery: o.HeartbeatEvery, HeartbeatTimeout: o.HeartbeatTimeout,
					Reliable: []failstop.ReliableOptions{o.Reliable}, Byzantine: []failstop.ByzantineOptions{o.Byzantine},
					Recovery: []failstop.RecoveryMode{o.Recovery},
				}
				if o.Topology != nil {
					spec.Topologies = []topo.Spec{*o.Topology}
				}
				if o.Faults != nil {
					spec.Plans = []netadv.Generator{netadv.Fixed(*o.Faults)}
				}
				entries = append(entries, entry{"sweep.Spec", "sweep: Spec.", spec.Validate()})
			}
			if o.Topology == nil {
				co := cluster.Options{
					Sim: sim.Config{N: o.N, MinDelay: o.MinDelay, MaxDelay: o.MaxDelay, MaxTime: o.MaxTime,
						MaxEvents: tc.maxEvents, Recovery: o.Recovery},
					Det:    core.Config{N: o.N, T: o.T},
					Faults: o.Faults, HeartbeatEvery: o.HeartbeatEvery, HeartbeatTimeout: o.HeartbeatTimeout,
					Reliable: o.Reliable, Byzantine: o.Byzantine,
				}
				if tc.link {
					co.Sim.Link = func(model.ProcID, model.ProcID, node.Payload, int64) node.LinkDecision { return node.LinkDecision{} }
				}
				err := co.Validate()
				if err == nil {
					err = co.CheckHorizon()
				}
				entries = append(entries, entry{"cluster.Options", "", err})
			}
			for _, e := range entries {
				if tc.field == "" {
					if e.err != nil {
						t.Errorf("%s rejects it: %v", e.name, e.err)
					}
					continue
				}
				if e.err == nil {
					t.Errorf("%s accepts it; want an error naming %s", e.name, tc.field)
					continue
				}
				tail, ok := strings.CutPrefix(e.err.Error(), e.prefix)
				if got := field.FindString(tail); !ok || got != tc.field {
					t.Errorf("%s: %v; want %q followed by the field %s", e.name, e.err, e.prefix, tc.field)
				}
			}
		})
	}
}

// TestOptionsValidateBoundsPlanTicks: a tick above 2⁴⁰ in a plan's Byzantine
// or process rule is refused before any run, naming the rule kind, its index
// and the field. Neither plan is run here: the ghost's ready time wraps
// negative, so its link reads as parked and an original is never delivered,
// and the storm's next window wraps to a tick already past, so sim.Run runs
// the skipped window again forever and never returns.
func TestOptionsValidateBoundsPlanTicks(t *testing.T) {
	for _, tc := range []struct {
		plan failstop.FaultPlan
		want string
	}{
		{failstop.FaultPlan{Name: "ghost", Byz: []failstop.ByzFaultRule{{Victim: 1, Replay: 1, ReplayDelay: math.MaxInt64}}},
			`failstop: Options.Faults: netadv: byz rule 0 of plan "ghost": ReplayDelay 9223372036854775807 exceeds`},
		{failstop.FaultPlan{Name: "storm", Procs: []failstop.ProcFaultRule{{Proc: 1, CrashAt: 5, Period: math.MaxInt64 - 1, ActiveFor: 1000}}},
			`failstop: Options.Faults: netadv: proc rule 0 of plan "storm": Period 9223372036854775806 exceeds`},
		{failstop.FaultPlan{Name: "late-storm", Procs: []failstop.ProcFaultRule{{Proc: 1, CrashAt: 1 << 40, Period: 10, ActiveFor: 5}}},
			`failstop: Options.Faults: netadv: proc rule 0 of plan "late-storm": CrashAt+ActiveFor 1099511627781 exceeds`},
	} {
		opts := failstop.Options{N: 5, T: 2, MaxTime: 500, Recovery: failstop.RecoveryAmnesia, Faults: &tc.plan}
		if err := opts.Validate(); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("plan %q: Options.Validate = %v, want %q…", tc.plan.Name, err, tc.want)
		}
	}
}
