package cluster_test

import (
	"reflect"
	"strings"
	"testing"

	"failstop/internal/byz"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/quorum"
	"failstop/internal/reliable"
	"failstop/internal/sim"
	"failstop/internal/topo"
)

func TestNewWiresAllProcesses(t *testing.T) {
	c := cluster.New(cluster.Options{
		Det: core.Config{N: 4, T: 1},
		Sim: sim.Config{Seed: 1},
	})
	if c.N() != 4 {
		t.Errorf("N() = %d", c.N())
	}
	for p := model.ProcID(1); p <= 4; p++ {
		if got := c.Detector(p).Config().N; got != 4 {
			t.Errorf("detector %d built for N = %d", p, got)
		}
	}
	res := c.Run()
	if len(res.History) != 0 {
		t.Errorf("idle cluster produced %d events", len(res.History))
	}
}

func TestQuorumSetsAggregation(t *testing.T) {
	c := cluster.New(cluster.Options{
		Det: core.Config{N: 5, T: 2},
		Sim: sim.Config{Seed: 2, MinDelay: 1, MaxDelay: 5},
	})
	c.SuspectAt(5, 2, 1)
	res := c.Run()
	sets := checker.QuorumSets(res.History, core.TagSusp)
	if len(sets) != 4 { // processes 2..5 each detected 1
		t.Fatalf("got %d quorum sets, want 4", len(sets))
	}
	min := quorum.MinSize(5, 2)
	for _, s := range sets {
		if s.Len() < min {
			t.Errorf("quorum %v smaller than %d", s, min)
		}
	}
	if !quorum.SubfamiliesIntersect(sets, 2) {
		t.Error("quorums from one run must satisfy the witness property")
	}
}

func TestCrashAndSuspectInjection(t *testing.T) {
	c := cluster.New(cluster.Options{
		Det: core.Config{N: 5, T: 2},
		Sim: sim.Config{Seed: 3, MinDelay: 1, MaxDelay: 5},
	})
	c.CrashAt(1, 5)
	c.SuspectAt(10, 1, 5)
	res := c.Run()
	if res.History.CrashIndex(5) < 0 {
		t.Error("injected crash missing")
	}
	if !c.Detector(1).Detected(5) {
		t.Error("injected suspicion did not lead to detection")
	}
	_ = model.History(res.History)
}

// TestOptionsValidate: a fixed QuorumSize is the §5 FixedQuorum threshold
// over the complete graph; anywhere else nothing reads it, or it overrides
// what each pool computes for itself. A T of 0 and a Sim.N other than Det.N
// used to validate, and New then panicked building the quorum or attaching
// a handler to a process the simulator did not have.
func TestOptionsValidate(t *testing.T) {
	gossip := topo.MustNew(topo.Spec{Kind: topo.KindGossip, Fanout: 2}, 6)
	for _, c := range []struct {
		name string
		det  core.Config
		simN int
		want string // "" means valid
	}{
		{"default quorum", core.Config{N: 6, T: 2}, 0, ""},
		{"sfs below the bound", core.Config{N: 6, T: 2, QuorumSize: 3}, 0, ""},
		{"sfs fixed, named", core.Config{N: 6, T: 2, Protocol: core.SimulatedFailStop, Policy: core.FixedQuorum, QuorumSize: 5}, 0, ""},
		{"complete graph topology", core.Config{N: 6, T: 2, QuorumSize: 3, Topology: topo.MustNew(topo.Spec{}, 6)}, 0, ""},
		{"default quorum under gossip", core.Config{N: 6, T: 2, Topology: gossip}, 0, ""},
		{"negative", core.Config{N: 6, T: 2, QuorumSize: -1}, 0, "QuorumSize = -1"},
		{"cheap", core.Config{N: 6, T: 2, Protocol: core.Cheap, QuorumSize: 3}, 0, "QuorumSize = 3 applies to the sfs protocol only; cheap"},
		{"unilateral", core.Config{N: 6, T: 2, Protocol: core.Unilateral, QuorumSize: 3}, 0, "unilateral never reads it"},
		{"all but suspected", core.Config{N: 6, T: 2, Policy: core.AllButSuspected, QuorumSize: 3}, 0, "FixedQuorum"},
		{"gossip", core.Config{N: 6, T: 2, QuorumSize: 3, Topology: gossip}, 0, "complete graph"},
		{"t = 0", core.Config{N: 5}, 0, "T = 0"},
		{"sim n = det n", core.Config{N: 5, T: 1}, 5, ""},
		{"sim n below det n", core.Config{N: 5, T: 1}, 3, "Sim.N = 3"},
		{"sim n above det n", core.Config{N: 5, T: 1}, 7, "Sim.N = 7"},
	} {
		err := cluster.Options{Sim: sim.Config{N: c.simN}, Det: c.det}.Validate()
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}

// attached is a bare Host: it only remembers what Build hands it.
type attached map[model.ProcID]node.Handler

func (a attached) SetHandler(p model.ProcID, h node.Handler) { a[p] = h }

// armed is a context that only notes, per process, the timers armed in it.
type armed struct {
	node.Context
	p     model.ProcID
	names map[model.ProcID][]string
}

func (c armed) Self() model.ProcID            { return c.p }
func (c armed) N() int                        { return 3 }
func (c armed) Now() int64                    { return 0 }
func (c armed) SetTimer(name string, _ int64) { c.names[c.p] = append(c.names[c.p], name) }

// TestBuildStackOrder: Build attaches one handler per process to any host —
// the detector itself with no interposer, and with both on the reliable
// endpoint outermost, the byz endpoint inside it, the detector innermost —
// and gives every process an fd component of its own, which arms its
// heartbeat at Init, and asks for the application once per process.
func TestBuildStackOrder(t *testing.T) {
	bare := attached{}
	st := cluster.Build(bare, cluster.Options{Det: core.Config{N: 3, T: 1}}, nil)
	for p := model.ProcID(1); p <= 3; p++ {
		if bare[p] != node.Handler(st.Detector(p)) {
			t.Errorf("process %d: a stack without interposers must attach the detector itself", p)
		}
	}

	full := attached{}
	var apps []model.ProcID
	st = cluster.Build(full, cluster.Options{
		Det:            core.Config{N: 3, T: 1},
		HeartbeatEvery: 10,
		App:            func(p model.ProcID) core.App { apps = append(apps, p); return nil },
		Reliable:       reliable.Options{Enabled: true},
		Byzantine:      byz.Options{Enabled: true},
	}, nil)
	fds := map[model.ProcID][]string{}
	for p := model.ProcID(1); p <= 3; p++ {
		rel, ok := full[p].(*reliable.Endpoint)
		if !ok {
			t.Fatalf("process %d: outermost handler is %T, want the reliable endpoint", p, full[p])
		}
		bz, ok := rel.Inner().(*byz.Endpoint)
		if !ok {
			t.Fatalf("process %d: inside the reliable endpoint sits %T, want the byz endpoint", p, rel.Inner())
		}
		if bz.Inner() != node.Handler(st.Detector(p)) {
			t.Errorf("process %d: the byz endpoint does not wrap the process's detector", p)
		}
		full[p].Init(armed{p: p, names: fds})
	}
	beat := []string{"fd/beat"} // the heartbeat's timer; with no timeout it checks nothing
	if want := []model.ProcID{1, 2, 3}; !reflect.DeepEqual(fds, map[model.ProcID][]string{1: beat, 2: beat, 3: beat}) || !reflect.DeepEqual(apps, want) {
		t.Errorf("fd timers armed %v, app built for %v, want an fd heartbeat and an app for each of %v", fds, apps, want)
	}
}

// sends counts the history's sends tagged tag.
func sends(h model.History, tag string) int {
	n := 0
	for _, e := range h {
		if e.Kind == model.KindSend && e.Tag == tag {
			n++
		}
	}
	return n
}

// TestDuplicatedHeartbeatsConvictNoOne: with both interposers on, every
// heartbeat duplicated, and a delay spread of 1–300 ticks, a heartbeat's
// copy can land long after its original. Heartbeats cross the reliable layer
// unsequenced, so nothing below the Byzantine layer retires the copy, and the
// Byzantine layer must discard it as a repeated frame: no honest sender is
// convicted.
func TestDuplicatedHeartbeatsConvictNoOne(t *testing.T) {
	plan := &netadv.Plan{Name: "hb-dup", Rules: []netadv.Rule{{Tags: []string{fd.TagHeartbeat}, Duplicate: 1}}}
	for seed := int64(1); seed <= 3; seed++ {
		res := cluster.New(cluster.Options{
			Det:            core.Config{N: 4, T: 1},
			Sim:            sim.Config{Seed: seed, MinDelay: 1, MaxDelay: 300, MaxTime: 3000},
			Faults:         plan,
			HeartbeatEvery: 20, HeartbeatTimeout: 2000,
			Reliable:  reliable.Options{Enabled: true},
			Byzantine: byz.Options{Enabled: true},
		}).Run()
		if res.Duplicated == 0 {
			t.Fatalf("seed %d: no heartbeat duplicated", seed)
		}
		if res.ByzDetected != 0 {
			t.Errorf("seed %d: %d convictions of honest senders over %d duplicated heartbeats", seed, res.ByzDetected, res.Duplicated)
		}
	}
}

// TestByzHoldsSuspFrames pins the byz layer's held tag to the detector's by
// behaviour: a suspicion's SUSP frames (core.TagSusp, which names
// node.TagSusp) are held for a witness quorum, which every receiver
// announces with BYZ.ECHO frames.
func TestByzHoldsSuspFrames(t *testing.T) {
	c := cluster.New(cluster.Options{
		Det:       core.Config{N: 4, T: 1},
		Sim:       sim.Config{Seed: 1, MinDelay: 1, MaxDelay: 5},
		Byzantine: byz.Options{Enabled: true},
	})
	c.SuspectAt(5, 1, 4)
	res := c.Run()
	if sends(res.History, core.TagSusp) == 0 {
		t.Fatal("no SUSP frames sent")
	}
	if sends(res.History, byz.TagEcho) == 0 {
		t.Errorf("a suspicion drew no %s frames (does the byz layer hold %q?)", byz.TagEcho, core.TagSusp)
	}
}
