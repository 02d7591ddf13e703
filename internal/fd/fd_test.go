package fd_test

import (
	"testing"

	"failstop/internal/adversary"
	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/sim"
)

func hbCluster(n, t int, hb func(model.ProcID) core.Component, simCfg sim.Config) *cluster.Cluster {
	return cluster.New(cluster.Options{
		Sim: simCfg,
		Det: core.Config{N: n, T: t, Protocol: core.SimulatedFailStop},
		FD:  hb,
	})
}

func TestHeartbeatDetectsGenuineCrash(t *testing.T) {
	c := hbCluster(5, 2,
		func(model.ProcID) core.Component { return &fd.Heartbeat{Interval: 10, Timeout: 50} },
		sim.Config{N: 5, Seed: 1, MinDelay: 1, MaxDelay: 3, MaxTime: 2000})
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
	c := hbCluster(5, 2,
		func(model.ProcID) core.Component { return &fd.Heartbeat{Interval: 10, Timeout: 60} },
		sim.Config{N: 5, Seed: 2, Delay: delay, MaxTime: 4000})
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
	c := hbCluster(4, 1,
		func(model.ProcID) core.Component { return &fd.Heartbeat{Interval: 10} },
		sim.Config{N: 4, Seed: 3, MinDelay: 1, MaxDelay: 3, MaxTime: 1000})
	c.CrashAt(100, 4)
	res := c.Run()
	ab := res.History.DropTags(core.TagSusp, fd.TagHeartbeat)
	if v := checker.FS1(ab); v.Holds {
		t.Error("FS1 should be violated without timeouts")
	}
}

func TestAdaptiveDetectsCrash(t *testing.T) {
	c := hbCluster(5, 2,
		func(model.ProcID) core.Component { return &fd.Adaptive{Interval: 10, Phi: 4} },
		sim.Config{N: 5, Seed: 4, MinDelay: 1, MaxDelay: 3, MaxTime: 3000})
	c.CrashAt(300, 5)
	c.Run()
	for p := model.ProcID(1); p <= 4; p++ {
		if !c.Detectors[p].Detected(5) {
			t.Errorf("process %d did not detect the crash of 5 (adaptive)", p)
		}
	}
}

// The adaptive detector tolerates a delay spike that fools the fixed one,
// when the spike is within its learned slack... and still gets fooled by a
// larger one (Theorem 1 applies to it too).
func TestAdaptiveStillNotPerfect(t *testing.T) {
	delay := adversary.HeartbeatSpike(1, fd.TagHeartbeat, 500, 2, 2000)
	c := hbCluster(5, 2,
		func(model.ProcID) core.Component { return &fd.Adaptive{Interval: 10, Phi: 4, MinTimeout: 40} },
		sim.Config{N: 5, Seed: 5, Delay: delay, MaxTime: 8000})
	res := c.Run()
	if res.History.CrashIndex(1) < 0 {
		t.Error("a large enough spike must defeat any adaptive detector")
	}
}

// TestSimultaneousTimeoutsDeterministic pins the suspicion *order* when
// several peers time out on the same check tick: the checker must walk
// peers in PID order, not map order, or the run — and every sweep built on
// it — is nondeterministic. Two processes crash at the same instant, so
// every survivor's check timer finds both silent at once; the full history
// must come out byte-identical on every run.
func TestSimultaneousTimeoutsDeterministic(t *testing.T) {
	run := func(mk func(model.ProcID) core.Component) string {
		c := hbCluster(5, 2, mk,
			sim.Config{N: 5, Seed: 6, MinDelay: 1, MaxDelay: 3, MaxTime: 2000})
		c.CrashAt(100, 4)
		c.CrashAt(100, 5)
		return c.Run().History.String()
	}
	fixed := func(model.ProcID) core.Component { return &fd.Heartbeat{Interval: 10, Timeout: 50} }
	adaptive := func(model.ProcID) core.Component { return &fd.Adaptive{Interval: 10, Phi: 4, MinTimeout: 40} }
	baseFixed, baseAdaptive := run(fixed), run(adaptive)
	for i := 0; i < 20; i++ {
		if got := run(fixed); got != baseFixed {
			t.Fatalf("run %d: fixed-timeout history diverged (map-order suspicion?)", i)
		}
		if got := run(adaptive); got != baseAdaptive {
			t.Fatalf("run %d: adaptive history diverged (map-order suspicion?)", i)
		}
	}
}

func TestHeartbeatPanicsWithoutInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Interval = 0")
		}
	}()
	c := hbCluster(2, 1,
		func(model.ProcID) core.Component { return &fd.Heartbeat{} },
		sim.Config{N: 2, Seed: 1, MaxTime: 10})
	c.Run()
}
