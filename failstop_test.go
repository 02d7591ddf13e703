package failstop_test

import (
	"testing"
	"time"

	"failstop"
)

func TestFacadeQuickstart(t *testing.T) {
	c := failstop.NewCluster(failstop.Options{N: 5, T: 2, Seed: 1})
	c.SuspectAt(10, 2, 1)
	rep := c.Run()
	if !rep.Quiescent {
		t.Fatal("run not quiescent")
	}
	for _, v := range rep.Verdicts {
		if v.Property == "FS2" {
			continue // may legitimately fail under false suspicion
		}
		if !v.Holds {
			t.Errorf("%s", v)
		}
	}
	if rep.Sent == 0 || rep.Delivered == 0 {
		t.Error("no traffic recorded")
	}
	if !c.Detector(3).Detected(1) {
		t.Error("process 3 did not detect 1")
	}
	fs, err := failstop.RewriteToFS(rep.Abstract)
	if err != nil {
		t.Fatalf("RewriteToFS: %v", err)
	}
	if !rep.Abstract.IsomorphicTo(fs) {
		t.Error("witness not isomorphic")
	}
	for _, v := range failstop.CheckFS(fs) {
		if !v.Holds {
			t.Errorf("witness: %s", v)
		}
	}
}

// TestFacadeHeartbeatsCrossBackend: one Options value with the fd layer on
// detects a genuine crash through heartbeat timeouts on both hosts.
func TestFacadeHeartbeatsCrossBackend(t *testing.T) {
	opts := failstop.Options{
		N: 4, T: 1, Seed: 2,
		MinDelay: 1, MaxDelay: 3,
		MaxTime:          2000,
		HeartbeatEvery:   10,
		HeartbeatTimeout: 50,
	}
	c := failstop.NewCluster(opts)
	c.CrashAt(100, 4)
	c.Run()
	for p := failstop.ProcID(1); p <= 3; p++ {
		if !c.Detector(p).Detected(4) {
			t.Errorf("sim: process %d did not detect the crash", p)
		}
	}

	// 1ms ticks: a heartbeat every 10ms, suspicion after 50ms of silence,
	// far above the live delays, so only the crashed process times out.
	lc := startLive(t, opts, failstop.Live{
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: time.Millisecond,
	})
	lc.Crash(4)
	allFailed := func() bool {
		h := lc.History()
		for p := failstop.ProcID(1); p <= 3; p++ {
			if h.FailedIndex(p, 4) < 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !allFailed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	h := lc.History()
	for p := failstop.ProcID(1); p <= 3; p++ {
		if h.FailedIndex(p, 4) < 0 {
			t.Errorf("live: process %d did not detect the crash", p)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("invalid live history: %v", err)
	}
}

func TestFacadeBounds(t *testing.T) {
	if failstop.MinQuorum(10, 3) != 7 {
		t.Errorf("MinQuorum(10,3) = %d", failstop.MinQuorum(10, 3))
	}
	if failstop.MaxTolerable(10) != 3 {
		t.Errorf("MaxTolerable(10) = %d", failstop.MaxTolerable(10))
	}
}

func TestFacadeRealizable(t *testing.T) {
	c := failstop.NewCluster(failstop.Options{N: 5, T: 2, Seed: 3})
	c.SuspectAt(5, 4, 5)
	rep := c.Run()
	if !failstop.Realizable(rep.Abstract) {
		t.Error("sFS run must be realizable")
	}
	if got := len(failstop.CheckAll(rep.History, failstop.DefaultSuspTag, 2)); got != 10 {
		t.Errorf("CheckAll returned %d verdicts", got)
	}
}

func TestFacadeLiveCluster(t *testing.T) {
	lc := startLive(t, failstop.Options{N: 5, T: 2, Seed: 4}, failstop.Live{
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
	})
	lc.Suspect(2, 1)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		h := lc.History()
		if h.CrashIndex(1) >= 0 && h.FailedIndex(2, 1) >= 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	h := lc.History()
	if err := h.Validate(); err != nil {
		t.Fatalf("invalid live history: %v", err)
	}
	if h.CrashIndex(1) < 0 {
		t.Error("suspected process did not crash on the live runtime")
	}
	ab := h.DropTags(failstop.DefaultSuspTag)
	for _, v := range failstop.CheckSFS(ab) {
		if v.Property == "FS1" {
			continue // live run stopped at a wall-clock cutoff, not quiescence
		}
		if !v.Holds {
			t.Errorf("%s", v)
		}
	}
}

func TestFacadeCheapProtocol(t *testing.T) {
	c := failstop.NewCluster(failstop.Options{N: 2, T: 2, Seed: 5, Protocol: failstop.Cheap, MinDelay: 5, MaxDelay: 5})
	c.SuspectAt(1, 1, 2)
	c.SuspectAt(1, 2, 1)
	rep := c.Run()
	cyclic := false
	for _, v := range rep.Verdicts {
		if v.Property == "sFS2b" && !v.Holds {
			cyclic = true
		}
	}
	if !cyclic {
		t.Error("cheap protocol should produce the 2-cycle here")
	}
	if _, err := failstop.RewriteToFS(rep.Abstract); err == nil {
		t.Error("cyclic run must not rewrite to FS")
	}
}
