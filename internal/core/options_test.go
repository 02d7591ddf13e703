package core_test

import (
	"testing"

	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/sim"
)

// echoApp records received app payloads and can send on command.
type echoApp struct {
	got [][]byte
}

func (a *echoApp) Init(node.Context, *core.Detector) {}
func (a *echoApp) OnAppMessage(_ node.Context, _ *core.Detector, _ model.ProcID, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	a.got = append(a.got, cp)
}
func (a *echoApp) OnFailed(node.Context, *core.Detector, model.ProcID) {}
func (a *echoApp) OnTimer(node.Context, *core.Detector, string)        {}

func TestStrictGatingStillSFS(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		apps := make([]*echoApp, 11)
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: 10, Seed: seed, MinDelay: 1, MaxDelay: 15},
			Det: core.Config{N: 10, T: 3, StrictGating: true},
			App: func(p model.ProcID) core.App {
				a := &echoApp{}
				apps[p] = a
				return a
			},
		})
		c.SuspectAt(5, 2, 1)
		c.SuspectAt(6, 4, 3)
		// App traffic racing the detections.
		d5 := c.Detectors[5]
		c.Sim.At(7, 5, func(ctx node.Context) {
			for q := model.ProcID(1); q <= 10; q++ {
				if q != 5 {
					d5.SendApp(ctx, q, []byte{0xAB})
				}
			}
		})
		res := c.Run()
		if !res.Quiescent() {
			t.Fatalf("seed %d: strict gating deadlocked: %+v", seed, res.Blocked)
		}
		ab := res.History.DropTags(core.TagSusp)
		if v, allOK := checker.AllHold(checker.SFS(ab)); !allOK {
			t.Errorf("seed %d: %s", seed, v)
		}
		// App messages reached live processes despite the gating.
		delivered := 0
		for p := 1; p <= 10; p++ {
			if apps[p] != nil {
				delivered += len(apps[p].got)
			}
		}
		if delivered == 0 {
			t.Errorf("seed %d: no app traffic delivered under strict gating", seed)
		}
	}
}

func TestPiggybackPreservesSFS(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: 10, Seed: seed, MinDelay: 1, MaxDelay: 15},
			Det: core.Config{N: 10, T: 3, Piggyback: true},
		})
		c.SuspectAt(5, 2, 1)
		c.SuspectAt(40, 3, 2) // second round: supporters have detections to piggyback
		res := c.Run()
		if !res.Quiescent() {
			t.Fatalf("seed %d: piggyback stalled: %+v", seed, res.Blocked)
		}
		assertSFS(t, res.History)
		// Both targets detected by all survivors.
		for p := model.ProcID(3); p <= 10; p++ {
			if !c.Detectors[p].Detected(1) || !c.Detectors[p].Detected(2) {
				t.Errorf("seed %d: process %d detections incomplete", seed, p)
			}
		}
	}
}

// Transitivity of failed-before (§6 discussion, and the future work the
// Piggyback option explores). A structural consequence of minimum quorums
// under FIFO channels: the senders a detector counts for target y delivered
// their channel prefixes, so any of them that had broadcast "x failed"
// earlier has already delivered it too; since any two quorums overlap in
// more than 2q-n > 0 processes, knowledge of earlier targets always travels
// with the quorum. The CHEAP model (quorum of one) has no such overlap:
// this scenario makes failed-before intransitive under cheap and shows the
// §5 protocol refusing the out-of-order detection.
func TestFailedBeforeTransitivityByProtocol(t *testing.T) {
	// Park "1 failed" toward 10 and toward 4, so 4 never learns of round 1
	// and 10 can never detect 1. Round 2 (target 2) is initiated by 4, so
	// 4's channel to 10 carries "2 failed" with no "1 failed" before it.
	park := func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if (to == 10 || to == 4) && p.Tag == core.TagSusp && p.Subject == 1 {
			return -1
		}
		return 2
	}
	run := func(proto core.Protocol, piggyback bool) (model.History, *cluster.Cluster) {
		c := cluster.New(cluster.Options{
			Sim: sim.Config{N: 10, Seed: 1, Delay: park},
			Det: core.Config{N: 10, T: 2, Protocol: proto, Piggyback: piggyback},
		})
		c.SuspectAt(5, 2, 1)   // round 1: failed_2(1) among {1..9}\{4}
		c.SuspectAt(100, 4, 2) // round 2: initiated by the isolated 4
		res := c.Run()
		return res.History, c
	}

	// Cheap: 10 detects 2 on 4's lone message without ever detecting 1 —
	// 1 fb 2 and 2 fb 10 but not 1 fb 10.
	hCheap, cCheap := run(core.Cheap, false)
	if !cCheap.Detectors[2].Detected(1) || !cCheap.Detectors[10].Detected(2) ||
		cCheap.Detectors[10].Detected(1) {
		t.Fatal("cheap scenario did not produce the intransitive pattern")
	}
	if model.NewFailedBefore(hCheap).Transitive() {
		t.Error("cheap model should yield an intransitive relation here")
	}

	// §5 protocol (with or without piggyback): 10 cannot assemble a quorum
	// for 2 that dodges knowledge of 1; it stalls instead of detecting out
	// of order, and the relation stays transitive.
	for _, piggyback := range []bool{false, true} {
		h, c := run(core.SimulatedFailStop, piggyback)
		if c.Detectors[10].Detected(2) && !c.Detectors[10].Detected(1) {
			t.Errorf("piggyback=%v: 10 detected 2 without 1 under §5 quorums", piggyback)
		}
		if !model.NewFailedBefore(h).Transitive() {
			t.Errorf("piggyback=%v: §5 relation intransitive", piggyback)
		}
	}
}

// The Piggyback pending path: a "2 failed" carrying piggybacked detections
// is held until the receiver matches them, then drained and counted — the
// receiver's own detections stay ordered.
func TestPiggybackPendingDrained(t *testing.T) {
	// "1 failed" toward 5 crawls (500 ticks); round 2 starts at 100, so 5
	// receives second-round SUSPs with piggyback {1} long before it can
	// detect 1.
	slow := func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if to == 5 && p.Tag == core.TagSusp && p.Subject == 1 {
			return 500
		}
		return 2
	}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 5, Seed: 1, Delay: slow},
		Det: core.Config{N: 5, T: 2, Piggyback: true},
	})
	c.SuspectAt(5, 2, 1)
	c.SuspectAt(100, 3, 2)
	res := c.Run()
	d5 := c.Detectors[5]
	if !d5.Detected(1) || !d5.Detected(2) {
		t.Fatalf("process 5 detections incomplete: %v", d5.DetectedSet())
	}
	// Process 5 detected 1 strictly before 2.
	f1, f2 := res.History.FailedIndex(5, 1), res.History.FailedIndex(5, 2)
	if f1 < 0 || f2 < 0 || f1 > f2 {
		t.Errorf("detection order at 5 wrong: failed_5(1)@%d failed_5(2)@%d", f1, f2)
	}
	assertSFS(t, res.History)
}

func TestPiggybackEncodingRoundTrip(t *testing.T) {
	// Exercised indirectly above; here check the Data bytes appear on the
	// wire with the detector's set.
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 5, Seed: 2, MinDelay: 1, MaxDelay: 3},
		Det: core.Config{N: 5, T: 2, Piggyback: true},
	})
	c.SuspectAt(5, 2, 1)
	c.SuspectAt(50, 3, 2)
	res := c.Run()
	sawPiggyback := false
	for _, e := range res.History {
		if e.Kind == model.KindSend && e.Tag == core.TagSusp && e.Target == 2 && e.Time >= 50 {
			sawPiggyback = true
		}
	}
	if !sawPiggyback {
		t.Error("no second-round SUSP traffic recorded")
	}
	assertSFS(t, res.History)
}

// Chained pending piggybacks: the drainPending fixpoint — completing one
// detection unblocks a pending count whose completion unblocks another.
func TestPiggybackChainedPending(t *testing.T) {
	// Deliveries of "1 failed" to 10 crawl the most, "2 failed" less, so 10
	// accumulates pending counts for targets 2 and 3 (whose piggybacks
	// reference 1 and {1,2}) before it can detect 1. n=10 with T=3 keeps
	// Corollary 8 satisfied across the three failures.
	slow := func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if to == 10 && p.Tag == core.TagSusp {
			switch p.Subject {
			case 1:
				return 900
			case 2:
				return 500
			}
		}
		return 2
	}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 10, Seed: 2, Delay: slow},
		Det: core.Config{N: 10, T: 3, Piggyback: true},
	})
	c.SuspectAt(5, 2, 1)
	c.SuspectAt(100, 3, 2)
	c.SuspectAt(200, 4, 3)
	res := c.Run()
	d10 := c.Detectors[10]
	for _, j := range []model.ProcID{1, 2, 3} {
		if !d10.Detected(j) {
			t.Fatalf("process 10 did not detect %d: %v", j, d10.DetectedSet())
		}
	}
	// Detection order at 10 must respect the dependency chain 1 < 2 < 3.
	f1 := res.History.FailedIndex(10, 1)
	f2 := res.History.FailedIndex(10, 2)
	f3 := res.History.FailedIndex(10, 3)
	if !(f1 < f2 && f2 < f3) {
		t.Errorf("detection order at 10: failed(1)@%d failed(2)@%d failed(3)@%d", f1, f2, f3)
	}
	assertSFS(t, res.History)
}

// Detector.OnTimer routing: fd/ names go to the component, others to the
// app; both are exercised here directly.
func TestDetectorTimerRouting(t *testing.T) {
	fdGot, appGot := []string{}, []string{}
	comp := &timerComponent{got: &fdGot}
	app := &timerApp{got: &appGot}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 2, Seed: 1, MaxTime: 100},
		Det: core.Config{N: 2, T: 1},
		FD:  func(model.ProcID) core.Component { return comp },
		App: func(model.ProcID) core.App { return app },
	})
	c.Run()
	foundFD, foundApp := false, false
	for _, name := range fdGot {
		if name == "fd/ping" {
			foundFD = true
		}
	}
	for _, name := range appGot {
		if name == "app-ping" {
			foundApp = true
		}
	}
	if !foundFD || !foundApp {
		t.Errorf("timer routing wrong: fd=%v app=%v", fdGot, appGot)
	}
}

type timerComponent struct{ got *[]string }

func (c *timerComponent) Init(ctx node.Context, d *core.Detector)                            { ctx.SetTimer("fd/ping", 5) }
func (c *timerComponent) OnMessage(node.Context, *core.Detector, model.ProcID, node.Payload) {}
func (c *timerComponent) OnTimer(_ node.Context, _ *core.Detector, name string) {
	*c.got = append(*c.got, name)
}

type timerApp struct{ got *[]string }

func (a *timerApp) Init(ctx node.Context, d *core.Detector)                         { ctx.SetTimer("app-ping", 5) }
func (a *timerApp) OnAppMessage(node.Context, *core.Detector, model.ProcID, []byte) {}
func (a *timerApp) OnFailed(node.Context, *core.Detector, model.ProcID)             {}
func (a *timerApp) OnTimer(_ node.Context, _ *core.Detector, name string) {
	*a.got = append(*a.got, name)
}
