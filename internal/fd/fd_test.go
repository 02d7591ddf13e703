package fd_test

import (
	"runtime"
	"testing"

	"failstop/internal/adversary"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/sim"
	"failstop/internal/topo"
)

// hbCluster gives every process an fd.Heartbeat beating every interval ticks
// and suspecting after timeout (never, at 0).
func hbCluster(n, t int, interval, timeout int64, simCfg sim.Config) *cluster.Cluster {
	return cluster.New(cluster.Options{
		Sim:            simCfg,
		Det:            core.Config{N: n, T: t, Protocol: core.SimulatedFailStop},
		HeartbeatEvery: interval, HeartbeatTimeout: timeout,
	})
}

func TestHeartbeatDetectsGenuineCrash(t *testing.T) {
	c := hbCluster(5, 2, 10, 50, sim.Config{N: 5, Seed: 1, MinDelay: 1, MaxDelay: 3, MaxTime: 2000})
	c.CrashAt(100, 5)
	res := c.Run()
	for p := model.ProcID(1); p <= 4; p++ {
		if !c.Detectors[p].Detected(5) {
			t.Errorf("process %d did not detect the crash of 5", p)
		}
	}
	// FS1 holds at the horizon for the crashed process.
	ab := res.History.DropTags(core.TagSusp, fd.TagHeartbeat)
	if v := checker.FS1(ab); !v.Holds {
		t.Errorf("%s", v)
	}
	// No false detections: delays stay well under the timeout.
	for p := model.ProcID(1); p <= 4; p++ {
		for q := model.ProcID(1); q <= 4; q++ {
			if p != q && c.Detectors[p].Detected(q) {
				t.Errorf("false detection: %d detected healthy %d", p, q)
			}
		}
	}
}

// The Theorem 1 dilemma, operationally: with an adversarial delay spike
// bigger than the timeout, a healthy process is suspected and — because the
// detections must look like fail-stop — killed.
func TestHeartbeatFalseSuspicionUnderSpike(t *testing.T) {
	spike := adversary.HeartbeatSpike(1, fd.TagHeartbeat, 100, 2, 500)
	// Additionally slow protocol deliveries *to* the victim, so the
	// detectors complete their quorums before the victim receives its death
	// sentence: that ordering is what makes the detection visibly false
	// (FS2). Heartbeats to the victim stay fast, or it would start falsely
	// suspecting everyone else itself.
	delay := func(from, to model.ProcID, p node.Payload, at int64) int64 {
		if to == 1 && p.Tag == core.TagSusp {
			return 80
		}
		return spike(from, to, p, at)
	}
	c := hbCluster(5, 2, 10, 60, sim.Config{N: 5, Seed: 2, Delay: delay, MaxTime: 4000})
	res := c.Run()
	if res.History.CrashIndex(1) < 0 {
		t.Fatal("spiked process was not killed (no false suspicion?)")
	}
	// FS2 is violated on the abstract history (the detection was false)...
	ab := res.History.DropTags(core.TagSusp, fd.TagHeartbeat)
	if v := checker.FS2(ab); v.Holds {
		t.Error("expected an FS2 violation from the false suspicion")
	}
	// ...but the sFS safety conditions hold.
	for _, v := range []checker.Verdict{
		checker.SFS2b(ab), checker.SFS2c(ab), checker.SFS2d(ab),
	} {
		if !v.Holds {
			t.Errorf("%s", v)
		}
	}
}

// With no timeout (Timeout = 0) crashes are never suspected: FS1 is
// violated — the other horn of the Theorem 1 dilemma.
func TestNoTimeoutViolatesFS1(t *testing.T) {
	c := hbCluster(4, 1, 10, 0, sim.Config{N: 4, Seed: 3, MinDelay: 1, MaxDelay: 3, MaxTime: 1000})
	c.CrashAt(100, 4)
	res := c.Run()
	ab := res.History.DropTags(core.TagSusp, fd.TagHeartbeat)
	if v := checker.FS1(ab); v.Holds {
		t.Error("FS1 should be violated without timeouts")
	}
}

// TestSimultaneousTimeoutsDeterministic pins the suspicion *order* when
// several peers time out on the same check tick: the checker must walk
// peers in PID order, not map order, or the run — and every sweep built on
// it — is nondeterministic. Two processes crash at the same instant, so
// every survivor's check timer finds both silent at once; the full history
// must come out byte-identical on every run.
func TestSimultaneousTimeoutsDeterministic(t *testing.T) {
	run := func() string {
		c := hbCluster(5, 2, 10, 50, sim.Config{N: 5, Seed: 6, MinDelay: 1, MaxDelay: 3, MaxTime: 2000})
		c.CrashAt(100, 4)
		c.CrashAt(100, 5)
		return c.Run().History.String()
	}
	base := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != base {
			t.Fatalf("run %d: fixed-timeout history diverged (map-order suspicion?)", i)
		}
	}
}

func TestHeartbeatPanicsWithoutInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Interval = 0")
		}
	}()
	// HeartbeatEvery 0 means no fd layer, so the component is assembled by
	// hand over a bare simulator.
	s := sim.New(sim.Config{N: 2, Seed: 1, MaxTime: 10})
	for p := model.ProcID(1); p <= 2; p++ {
		s.SetHandler(p, core.NewDetector(core.Config{N: 2, T: 1}, &fd.Heartbeat{}, nil))
	}
	s.Run()
}

// beatCtx is a context that only tells a heartbeat who it is and when.
type beatCtx struct {
	node.Context
	p model.ProcID
	n int
}

func (c beatCtx) Self() model.ProcID     { return c.p }
func (c beatCtx) N() int                 { return c.n }
func (c beatCtx) Now() int64             { return 0 }
func (c beatCtx) SetTimer(string, int64) {}

// TestHeartbeatFootprintSmall: a heartbeat monitors its detector's peers,
// so at N = 10,000 over a gossip overlay its table follows the neighbourhood
// (8 to 16 peers here), not N. Init allocates under 2 KiB; a table sized by
// N, or by the largest id, would take at least 80 KB of slots alone.
func TestHeartbeatFootprintSmall(t *testing.T) {
	const n = 10_000
	ctx := beatCtx{p: n / 2, n: n}
	d := core.NewDetector(core.Config{N: n, T: 3, Topology: topo.MustNew(topo.Spec{Kind: topo.KindGossip, Fanout: 8}, n)}, nil, nil)
	d.Init(ctx)
	peers := 0
	d.ForEachPeer(func(model.ProcID) { peers++ })
	h := &fd.Heartbeat{Interval: 10, Timeout: 50}
	h.Init(ctx, d)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2000; i++ {
		h.Init(ctx, d)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / 2000
	t.Logf("a heartbeat monitoring %d of %d processes allocated %d B at Init", peers, n, per)
	if peers > 16 || per >= 2048 {
		t.Errorf("a heartbeat monitoring %d of %d processes allocated %d B at Init, want at most 16 peers and < 2048 B", peers, n, per)
	}
}
