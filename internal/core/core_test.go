package core_test

import (
	"strings"
	"testing"

	"failstop/internal/checker"
	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/quorum"
	"failstop/internal/sim"
)

// sfsCluster builds an n-process simulated-fail-stop cluster with max t
// failures and the given seed.
func sfsCluster(n, t int, seed int64) *cluster.Cluster {
	return cluster.New(cluster.Options{
		Sim: sim.Config{N: n, Seed: seed, MinDelay: 1, MaxDelay: 10},
		Det: core.Config{N: n, T: t, Protocol: core.SimulatedFailStop},
	})
}

// assertSFS checks the Figure 1 properties on the model-level (abstract)
// history: the detector's own SUSP traffic implements the failed events and
// is below the model (see model.History.DropTags).
func assertSFS(t *testing.T, h model.History) {
	t.Helper()
	if err := h.Validate(); err != nil {
		t.Errorf("invalid history: %v", err)
	}
	abstract := h.DropTags(core.TagSusp)
	if err := abstract.Validate(); err != nil {
		t.Errorf("invalid abstract history: %v", err)
	}
	for _, v := range checker.SFS(abstract) {
		if !v.Holds {
			t.Errorf("%s", v)
		}
	}
}

func TestGenuineCrashDetectedByAll(t *testing.T) {
	c := sfsCluster(5, 2, 1)
	c.CrashAt(5, 1)
	// Process 2 times out on 1 and starts the protocol; others join.
	c.SuspectAt(20, 2, 1)
	res := c.Run()
	if !res.Quiescent() {
		t.Fatalf("not quiescent: %+v", res.Blocked)
	}
	assertSFS(t, res.History)
	for p := model.ProcID(2); p <= 5; p++ {
		if !c.Detector(p).Detected(1) {
			t.Errorf("process %d did not detect 1", p)
		}
	}
	// FS2 also holds here: the crash was genuine and preceded detection.
	if v := checker.FS2(res.History); !v.Holds {
		t.Errorf("%s", v)
	}
}

func TestFalseSuspicionKillsTarget(t *testing.T) {
	c := sfsCluster(5, 2, 7)
	// Nobody crashed, but 2 suspects 1 anyway (erroneous timeout).
	c.SuspectAt(10, 2, 1)
	res := c.Run()
	if !res.Quiescent() {
		t.Fatalf("not quiescent: %+v", res.Blocked)
	}
	assertSFS(t, res.History)
	// sFS2a in action: the falsely suspected process must end up crashed.
	if res.History.CrashIndex(1) < 0 {
		t.Error("falsely suspected process 1 never crashed")
	}
	for p := model.ProcID(2); p <= 5; p++ {
		if !c.Detector(p).Detected(1) {
			t.Errorf("process %d did not detect 1", p)
		}
	}
}

func TestQuorumSizeMatchesTheorem7(t *testing.T) {
	c := sfsCluster(9, 3, 3)
	c.CrashAt(1, 9)
	c.SuspectAt(5, 1, 9)
	res := c.Run()
	assertSFS(t, res.History)
	want := quorum.MinSize(9, 3) // 7
	for p := model.ProcID(1); p <= 8; p++ {
		qs := c.Detector(p).Quorums()
		q, okq := qs[9]
		if !okq {
			t.Fatalf("process %d has no quorum snapshot for 9", p)
		}
		if len(q) < want {
			t.Errorf("process %d quorum size %d < %d", p, len(q), want)
		}
	}
	// The trace-reconstructed quorum sets must match the detector snapshots.
	fromTrace := checker.QuorumSets(res.History, core.TagSusp)
	if len(fromTrace) != 8 {
		t.Fatalf("trace yields %d quorum sets, want 8", len(fromTrace))
	}
	for _, q := range fromTrace {
		if q.Len() < want {
			t.Errorf("trace quorum size %d < %d", q.Len(), want)
		}
	}
}

func TestNoSelfDetectionEver(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		c := sfsCluster(6, 2, seed)
		c.SuspectAt(5, 2, 1)
		c.SuspectAt(5+seed%7, 4, 3)
		res := c.Run()
		if v := checker.SFS2c(res.History); !v.Holds {
			t.Fatalf("seed %d: %s", seed, v)
		}
	}
}

func TestConcurrentSuspicionsNoCycle(t *testing.T) {
	// Two processes suspect each other simultaneously: under sFS the quorum
	// round must resolve it with at most one surviving detection direction.
	for seed := int64(0); seed < 25; seed++ {
		c := sfsCluster(5, 2, seed)
		c.SuspectAt(10, 1, 2)
		c.SuspectAt(10, 2, 1)
		res := c.Run()
		assertSFS(t, res.History)
		if v := checker.WitnessProperty(res.History, core.TagSusp, 2); !v.Holds {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

func TestManyConcurrentSuspicionsStillSFS(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := sfsCluster(10, 3, seed)
		c.SuspectAt(5, 1, 2)
		c.SuspectAt(5, 2, 3)
		c.SuspectAt(5, 3, 1)
		res := c.Run()
		assertSFS(t, res.History)
	}
}

func TestCheapProtocolViolatesOnlySFS2b(t *testing.T) {
	// §6: force the 2-cycle. 1 suspects 2 while 2 suspects 1; with the
	// cheap protocol both detect immediately, then both crash on receiving
	// the other's "you failed".
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 2, Seed: 1, MinDelay: 5, MaxDelay: 5},
		Det: core.Config{N: 2, T: 2, Protocol: core.Cheap},
	})
	c.SuspectAt(1, 1, 2)
	c.SuspectAt(1, 2, 1)
	res := c.Run()
	if err := res.History.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if v := checker.SFS2b(res.History); v.Holds {
		t.Error("expected an sFS2b violation (failed-before cycle) under the cheap protocol")
	}
	// The other sFS properties still hold (on the abstract history).
	abstract := res.History.DropTags(core.TagSusp)
	for _, v := range []checker.Verdict{
		checker.SFS2a(abstract),
		checker.SFS2c(abstract),
		checker.SFS2d(abstract),
	} {
		if !v.Holds {
			t.Errorf("%s", v)
		}
	}
}

func TestUnilateralViolatesSFS2a(t *testing.T) {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 3, Seed: 1},
		Det: core.Config{N: 3, T: 1, Protocol: core.Unilateral},
	})
	c.SuspectAt(1, 1, 2)
	res := c.Run()
	// Unilateral detection sends nothing: 2 never crashes.
	if v := checker.SFS2a(res.History); v.Holds {
		t.Error("expected sFS2a violation under unilateral protocol")
	}
	if res.Sent != 0 {
		t.Errorf("unilateral protocol sent %d messages, want 0", res.Sent)
	}
}

func TestProgressRequiresCorollary8(t *testing.T) {
	// n=4, t=2: n <= t^2, so with 2 genuine crashes the survivors cannot
	// assemble a quorum (need 3, only 2 alive) and detection blocks.
	c := sfsCluster(4, 2, 1)
	c.CrashAt(1, 1)
	c.CrashAt(1, 2)
	c.SuspectAt(10, 3, 1)
	res := c.Run()
	if c.Detector(3).Detected(1) || c.Detector(4).Detected(1) {
		t.Error("detection completed despite unreachable quorum (violates Theorem 7 analysis)")
	}
	// n=5, t=2: n > t^2, the same scenario completes.
	c2 := sfsCluster(5, 2, 1)
	c2.CrashAt(1, 1)
	c2.CrashAt(1, 2)
	c2.SuspectAt(10, 3, 1)
	c2.SuspectAt(10, 3, 2)
	res2 := c2.Run()
	if !c2.Detector(3).Detected(1) || !c2.Detector(4).Detected(1) || !c2.Detector(5).Detected(1) {
		t.Error("detection did not complete despite n > t^2")
	}
	assertSFS(t, res2.History)
	_ = res
}

func TestAllButSuspectedPolicy(t *testing.T) {
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 6, Seed: 2, MinDelay: 1, MaxDelay: 8},
		Det: core.Config{N: 6, T: 5, Protocol: core.SimulatedFailStop, Policy: core.AllButSuspected},
	})
	c.CrashAt(1, 6)
	c.SuspectAt(5, 1, 6)
	res := c.Run()
	assertSFS(t, res.History)
	for p := model.ProcID(1); p <= 5; p++ {
		if !c.Detector(p).Detected(6) {
			t.Errorf("process %d did not detect 6 under AllButSuspected", p)
		}
	}
	// Quorums under AllButSuspected contain every unsuspected process.
	for p := model.ProcID(1); p <= 5; p++ {
		q := c.Detector(p).Quorums()[6]
		if len(q) != 5 { // everyone but the crashed target
			t.Errorf("process %d quorum = %v, want all 5 live processes", p, q)
		}
	}
}

func TestSFS2dGatingOnAppTraffic(t *testing.T) {
	// An app on process 1 that sends an APP message to 3 right after
	// detecting 2. Process 3's receive must be deferred until 3 detects 2.
	app := &notifyApp{sendOnFailed: map[model.ProcID]model.ProcID{2: 3}}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: 5, Seed: 11, MinDelay: 1, MaxDelay: 20},
		Det: core.Config{N: 5, T: 2, Protocol: core.SimulatedFailStop},
		App: func(p model.ProcID) core.App {
			if p == 1 {
				return app
			}
			return &notifyApp{}
		},
	})
	c.SuspectAt(5, 1, 2)
	res := c.Run()
	assertSFS(t, res.History) // includes the sFS2d check
	if !res.Quiescent() {
		t.Fatalf("not quiescent: %+v", res.Blocked)
	}
}

// notifyApp sends one APP message to sendOnFailed[j] when failed(j) fires.
type notifyApp struct {
	sendOnFailed map[model.ProcID]model.ProcID
	gotApp       []model.ProcID
	failures     []model.ProcID
}

func (a *notifyApp) Init(ctx node.Context, d *core.Detector) {}
func (a *notifyApp) OnAppMessage(ctx node.Context, d *core.Detector, from model.ProcID, data []byte) {
	a.gotApp = append(a.gotApp, from)
}
func (a *notifyApp) OnFailed(ctx node.Context, d *core.Detector, j model.ProcID) {
	a.failures = append(a.failures, j)
	if to, okTo := a.sendOnFailed[j]; okTo {
		d.SendApp(ctx, to, []byte("post-detection"))
	}
}
func (a *notifyApp) OnTimer(ctx node.Context, d *core.Detector, name string) {}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() model.History {
		c := sfsCluster(7, 2, 99)
		c.CrashAt(3, 7)
		c.SuspectAt(9, 1, 7)
		c.SuspectAt(9, 2, 6)
		return c.Run().History
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Same(b[i]) || a[i].Time != b[i].Time {
			t.Fatalf("histories diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestSuspectSelfAndDuplicatesIgnored(t *testing.T) {
	c := sfsCluster(5, 2, 4)
	c.SuspectAt(5, 1, 1) // self-suspicion: ignored
	c.SuspectAt(6, 2, 3)
	c.SuspectAt(7, 2, 3) // duplicate: ignored
	res := c.Run()
	assertSFS(t, res.History)
	if c.Detector(1).Suspects(1) {
		t.Error("self-suspicion must be ignored")
	}
	// Exactly one "suspect 3" internal event from process 2.
	count := 0
	for _, e := range res.History {
		if e.Kind == model.KindInternal && e.Tag == model.TagSuspect && e.Proc == 2 && e.Target == 3 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("suspicion recorded %d times, want 1", count)
	}
}

func TestDetectorStateAccessors(t *testing.T) {
	c := sfsCluster(5, 2, 5)
	c.SuspectAt(5, 2, 1)
	c.Run()
	d := c.Detector(2)
	if !d.Detected(1) || d.Detected(3) {
		t.Error("Detected() wrong")
	}
	if got := d.DetectedSet(); len(got) != 1 || got[0] != 1 {
		t.Errorf("DetectedSet() = %v", got)
	}
	if !d.Suspects(1) {
		t.Error("Suspects(1) = false")
	}
	if d.Crashed() {
		t.Error("process 2 should be alive")
	}
	if !c.Detector(1).Crashed() {
		t.Error("process 1 should have crashed (false suspicion)")
	}
	if d.Config().QuorumSize != quorum.MinSize(5, 2) {
		t.Errorf("default quorum size = %d", d.Config().QuorumSize)
	}
	// Quorums returns copies.
	q1 := d.Quorums()
	q1[1][0] = 99
	if d.Quorums()[1][0] == 99 {
		t.Error("Quorums must return copies")
	}
}

func TestProtocolString(t *testing.T) {
	if core.SimulatedFailStop.String() != "sfs" ||
		core.Cheap.String() != "cheap" ||
		core.Unilateral.String() != "unilateral" {
		t.Error("Protocol.String names wrong")
	}
}

func TestNewDetectorPanics(t *testing.T) {
	for _, cfg := range []core.Config{
		{N: 1, T: 1},
		{N: 5, T: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewDetector(%+v) did not panic", cfg)
				}
			}()
			core.NewDetector(cfg, nil, nil)
		}()
	}
}

func TestWitnessHoldsAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		// n=10, t=3: the smallest grid point with n > t^2 (Corollary 8), so
		// three concurrent erroneous detections still make progress.
		c := sfsCluster(10, 3, seed)
		c.SuspectAt(3, 1, 9)
		c.SuspectAt(4, 2, 8)
		c.SuspectAt(5, 3, 7)
		res := c.Run()
		assertSFS(t, res.History)
		if v := checker.WitnessProperty(res.History, core.TagSusp, 3); !v.Holds {
			t.Errorf("seed %d: %s", seed, v)
		}
	}
}

// restartCtx is the little of node.Context that Detector.OnRestart touches.
type restartCtx struct {
	node.Context
	self model.ProcID
	n    int
}

func (c restartCtx) Self() model.ProcID { return c.self }
func (c restartCtx) N() int             { return c.n }

// TestSnapshotRestartRoundTrip: a detector restored from its own snapshot
// re-encodes to the same bytes — sender sets, quorum snapshots and all —
// and a snapshot naming process ids nobody has (storage is outside the
// program) restores without them instead of panicking.
func TestSnapshotRestartRoundTrip(t *testing.T) {
	c := sfsCluster(5, 2, 5)
	c.SuspectAt(5, 2, 1)
	c.Run()
	d := c.Detector(2)
	snap := d.Snapshot()
	if !strings.Contains(string(snap), `"counts":[{"target":1,"senders":[`) {
		t.Fatalf("snapshot carries no sender set: %s", snap)
	}
	fresh := core.NewDetector(d.Config(), nil, nil)
	fresh.OnRestart(restartCtx{self: 2, n: 5}, snap)
	if got := fresh.Snapshot(); string(got) != string(snap) {
		t.Errorf("restored detector re-encodes differently:\n got %s\nwant %s", got, snap)
	}

	hostile := []byte(`{"suspected":[3],"counts":[{"target":3,"senders":[-7,2,4,99999]}]}`)
	fresh.OnRestart(restartCtx{self: 2, n: 5}, hostile)
	if got, want := string(fresh.Snapshot()), `{"suspected":[3],"counts":[{"target":3,"senders":[2,4]}]}`; got != want {
		t.Errorf("hostile snapshot restored as %s, want %s", got, want)
	}

	// At T = 1 a cluster carves each detector room for one round; process 2
	// opens three, so its rounds and sets have grown out of the carved block
	// by the time it restarts — from its own snapshot, then from one with a
	// single round, whose sender set must not inherit the old rounds' bits.
	c = sfsCluster(5, 1, 5)
	for at, j := range []model.ProcID{1, 3, 4} {
		c.SuspectAt(int64(5+at), 2, j)
	}
	c.Run()
	d = c.Detector(2)
	snap = d.Snapshot()
	if !strings.Contains(string(snap), `"suspected":[1,3,4]`) {
		t.Fatalf("process 2 did not open three rounds: %s", snap)
	}
	d.OnRestart(restartCtx{self: 2, n: 5}, snap)
	if got := d.Snapshot(); string(got) != string(snap) {
		t.Errorf("a detector whose rounds outgrew their first storage re-encodes differently:\n got %s\nwant %s", got, snap)
	}
	d.OnRestart(restartCtx{self: 2, n: 5}, []byte(`{"suspected":[4],"counts":[{"target":4,"senders":[2]}]}`))
	if got, want := string(d.Snapshot()), `{"suspected":[4],"counts":[{"target":4,"senders":[2]}]}`; got != want {
		t.Errorf("grown detector restored from one round as %s, want %s", got, want)
	}
}
