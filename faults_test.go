package failstop_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"failstop"
	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/obs"
	"failstop/internal/sim"
	"failstop/internal/sweep"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts failstop.Options
		want string // substring of the error; "" means valid
	}{
		{"too few processes", failstop.Options{N: 1}, "at least 2"},
		{"zero processes", failstop.Options{N: 0}, "at least 2"},
		{"more processes than a history names", failstop.Options{N: model.MaxProcs + 1, T: 1}, "at most 1048576"},
		{"negative t", failstop.Options{N: 5, T: -1}, "cannot be negative"},
		{"heartbeats without horizon", failstop.Options{N: 5, HeartbeatEvery: 10}, "MaxTime"},
		{"bad fault plan", failstop.Options{N: 5, Faults: &failstop.FaultPlan{
			Rules: []failstop.FaultRule{{Drop: 2}},
		}}, "outside [0,1]"},
		{"plan names unknown process", failstop.Options{N: 5, Faults: &failstop.FaultPlan{
			Rules: []failstop.FaultRule{{Cut: true, Links: failstop.LinkSet{
				Groups: [][]failstop.ProcID{{1, 9}},
			}}},
		}}, "outside 1..5"},
		{"negative heartbeat interval", failstop.Options{N: 5, HeartbeatEvery: -3, HeartbeatTimeout: 5, MaxTime: 100}, "Options.HeartbeatEvery = -3"},
		{"negative heartbeat timeout", failstop.Options{N: 5, HeartbeatEvery: 5, HeartbeatTimeout: -5, MaxTime: 100}, "Options.HeartbeatTimeout = -5"},
		{"negative horizon", failstop.Options{N: 5, MaxTime: -5}, "Options.MaxTime = -5"},
		{"valid minimal", failstop.Options{N: 2}, ""},
		{"valid heartbeats", failstop.Options{N: 5, HeartbeatEvery: 10, MaxTime: 1000}, ""},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.opts.Validate()
			if tt.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.want)
			}
		})
	}
}

func TestNewClusterPanicsOnInvalidOptions(t *testing.T) {
	for name, opts := range map[string]failstop.Options{
		"n too small":        {N: 1},
		"heartbeats forever": {N: 5, HeartbeatEvery: 7},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("NewCluster accepted invalid options")
				}
			}()
			failstop.NewCluster(opts)
		})
	}
}

// TestFacadesRejectTheSameInputs: NewCluster and NewLiveCluster check one
// Options by one shared check, so a bad shared value draws the same error
// from both — NewCluster panics with exactly what NewLiveCluster returns. A
// rule of the live host alone is NewLiveCluster's error and NewCluster's
// business not at all.
func TestFacadesRejectTheSameInputs(t *testing.T) {
	badPlan := &failstop.FaultPlan{Rules: []failstop.FaultRule{{Drop: 2}}}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		opts     failstop.Options
		live     failstop.Live
		liveOnly bool   // a rule only NewLiveCluster has
		want     string // what the error contains
	}{
		{name: "n", opts: failstop.Options{N: 1}, want: "at least 2"},
		{name: "n above MaxProcs", opts: failstop.Options{N: model.MaxProcs + 1}, want: "at most 1048576"},
		{name: "t", opts: failstop.Options{N: 4, T: -1}, want: "cannot be negative"},
		{name: "min delay", opts: failstop.Options{N: 4, MinDelay: -5, MaxDelay: -1}, want: "delay bound cannot be negative"},
		{name: "max delay", opts: failstop.Options{N: 4, MaxDelay: -1}, want: "delay bound cannot be negative"},
		{name: "topology", opts: failstop.Options{N: 4, Topology: &failstop.TopoSpec{Kind: failstop.TopoGossip, Fanout: 9}}, want: "Topology"},
		{name: "faults", opts: failstop.Options{N: 4, Faults: badPlan}, want: "outside [0,1]"},
		{name: "reliable", opts: failstop.Options{N: 4, Reliable: failstop.ReliableOptions{Enabled: true, MaxRetries: -1}}, want: "Reliable"},
		{name: "byzantine", opts: failstop.Options{N: 4, Byzantine: failstop.ByzantineOptions{Enabled: true, EchoTags: []string{""}}}, want: "Byzantine"},
		// A negative tick would record receives and crashes at tick -1 after
		// their sends at tick 0, in a history that validates.
		{name: "negative tick", opts: failstop.Options{N: 4}, live: failstop.Live{Tick: -time.Millisecond},
			liveOnly: true, want: "failstop: Live.Tick = -1ms"},
		{name: "timeline", opts: failstop.Options{N: 4, Timeline: failstop.NewTimeline(5, 0)},
			liveOnly: true, want: "failstop: Options.Timeline"},
		{name: "recovery dir under a file", opts: failstop.Options{N: 4, Recovery: failstop.RecoveryDurable},
			live: failstop.Live{RecoveryDir: filepath.Join(file, "snapshots")}, liveOnly: true, want: "failstop: Live.RecoveryDir"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			lc, err := failstop.NewLiveCluster(tt.opts, tt.live)
			if lc != nil || err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("NewLiveCluster = %v, %v; want an error containing %q", lc, err, tt.want)
			}
			defer func() {
				got := recover()
				switch {
				case tt.liveOnly && got != nil:
					t.Errorf("NewCluster panicked with %v on a rule of the live host alone", got)
				case !tt.liveOnly && fmt.Sprint(got) != err.Error():
					t.Errorf("NewCluster panicked with %v, want what NewLiveCluster returned: %v", got, err)
				}
			}()
			failstop.NewCluster(tt.opts)
		})
	}
}

// TestDelayBoundsAtEveryEntryPoint: the four places a delay bound comes in —
// Options, Live, a sweep Spec and sim.New — reject the same pairs in the
// same words after their own prefix, and accept the same ones. A MaxDelay of
// MaxInt64 used to panic inside the run ("invalid argument to Int63n": the
// width overflowed), and MaxInt64-1 to wrap the clock negative, which parks.
func TestDelayBoundsAtEveryEntryPoint(t *testing.T) {
	for _, tc := range []struct {
		min, max int64
		want     string // what the error says after "MinDelay = …, MaxDelay = …: "; "" means accepted
	}{
		{0, 0, ""},
		{1, 10, ""},
		{7, 3, ""}, // MaxDelay below MinDelay means MinDelay
		{1 << 40, 1 << 40, ""},
		{-5, -1, "a delay bound cannot be negative"},
		{0, -1, "a delay bound cannot be negative"},
		{0, math.MaxInt64, "a delay bound cannot exceed 1099511627776"},
		{0, math.MaxInt64 - 1, "a delay bound cannot exceed 1099511627776"},
		{0, 1<<40 + 1, "a delay bound cannot exceed 1099511627776"},
		{1<<40 + 1, 0, "a delay bound cannot exceed 1099511627776"},
	} {
		newSim := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = errors.New(r.(string))
				}
			}()
			sim.New(sim.Config{N: 2, MinDelay: tc.min, MaxDelay: tc.max})
			return nil
		}
		_, liveErr := failstop.NewLiveCluster(failstop.Options{N: 4}, failstop.Live{MinDelay: time.Duration(tc.min), MaxDelay: time.Duration(tc.max)})
		for _, entry := range []struct {
			prefix string
			err    error
		}{
			{"failstop: Options.", failstop.Options{N: 4, MinDelay: tc.min, MaxDelay: tc.max}.Validate()},
			{"failstop: Live.", liveErr},
			{"sweep: Spec.", sweep.Spec{Grid: []sweep.NT{{N: 5, T: 2}}, MinDelay: tc.min, MaxDelay: tc.max}.Validate()},
			{"sim: Config.", newSim()},
		} {
			want := ""
			if tc.want != "" {
				want = fmt.Sprintf("%sMinDelay = %d, MaxDelay = %d: %s", entry.prefix, tc.min, tc.max, tc.want)
			}
			if got := fmt.Sprint(entry.err); (want == "") != (entry.err == nil) || !strings.HasPrefix(got, want) {
				t.Errorf("%s with MinDelay %d, MaxDelay %d: error %q, want %q", entry.prefix, tc.min, tc.max, got, want)
			}
		}
	}
}

func TestBuiltinFaultPlans(t *testing.T) {
	names := failstop.FaultPlanNames()
	if len(names) != 10 {
		t.Fatalf("FaultPlanNames() = %v", names)
	}
	for _, name := range names {
		plan, err := failstop.BuiltinFaultPlan(name, 10, 3)
		if err != nil {
			t.Fatalf("BuiltinFaultPlan(%s): %v", name, err)
		}
		if plan.Name != name || plan.Empty() {
			t.Errorf("plan %s: name=%q rules=%d", name, plan.Name, len(plan.Rules))
		}
	}
	if _, err := failstop.BuiltinFaultPlan("nope", 5, 2); err == nil {
		t.Error("unknown plan accepted")
	}
}

// splitBrainNow is a partition active from tick 0: majority {1,2,3} vs
// minority {4,5}. Immediate activation keeps sim and live semantics
// comparable without racing injection timing against the cut.
func splitBrainNow() *failstop.FaultPlan {
	return &failstop.FaultPlan{
		Name: "split-brain-now",
		Rules: []failstop.FaultRule{{
			Cut: true,
			Links: failstop.LinkSet{Groups: [][]failstop.ProcID{
				{1, 2, 3}, {4, 5},
			}},
		}},
	}
}

// checkSplitBrainSemantics asserts the plan semantics both backends must
// agree on for n=5, t=2 (minimum quorum 3): the majority-side detection of
// a minority member completes, the minority-side detection starves, and no
// message ever crosses the partition.
func checkSplitBrainSemantics(t *testing.T, backend string, h failstop.History, dropped int) {
	t.Helper()
	if h.FailedIndex(1, 4) < 0 {
		t.Errorf("%s: majority-side detection failed_1(4) never completed", backend)
	}
	if idx := h.FailedIndex(4, 1); idx >= 0 {
		t.Errorf("%s: minority-side detection failed_4(1) completed at %d despite quorum 3 > half size 2", backend, idx)
	}
	minority := map[failstop.ProcID]bool{4: true, 5: true}
	for _, e := range h {
		if e.Kind == model.KindRecv && minority[e.Proc] != minority[e.Peer] {
			t.Errorf("%s: message crossed the partition: %s", backend, e)
		}
	}
	if dropped == 0 {
		t.Errorf("%s: no messages dropped despite cross-partition broadcasts", backend)
	}
}

// TestFaultPlanCrossBackend is the acceptance criterion: the deterministic
// simulator and the live goroutine runtime agree on fault-plan semantics.
func TestFaultPlanCrossBackend(t *testing.T) {
	opts := failstop.Options{N: 5, T: 2, Seed: 3, Faults: splitBrainNow()}

	// Simulated backend.
	c := failstop.NewCluster(opts)
	c.SuspectAt(20, 1, 4)
	c.SuspectAt(25, 4, 1)
	rep := c.Run()
	checkSplitBrainSemantics(t, "sim", rep.History, rep.Dropped)

	// Live backend, same plan.
	lc := startLive(t, opts, fastLive)
	lc.Suspect(1, 4)
	lc.Suspect(4, 1)
	deadline := time.Now().Add(2 * time.Second)
	for lc.History().FailedIndex(1, 4) < 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	checkSplitBrainSemantics(t, "live", lc.History(), int(lc.Metrics().Value("net_dropped_total")))
}

// TestFaultPlanDeterministicRuns: identical options including a
// probabilistic plan reproduce byte-identical histories.
func TestFaultPlanDeterministicRuns(t *testing.T) {
	flaky, err := failstop.BuiltinFaultPlan("flaky-quorum", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() failstop.Report {
		c := failstop.NewCluster(failstop.Options{N: 10, T: 3, Seed: 11, Faults: &flaky})
		c.SuspectAt(10, 2, 1)
		return c.Run()
	}
	a, b := run(), run()
	if !a.History.IsomorphicTo(b.History) || len(a.History) != len(b.History) {
		t.Error("identical seeds produced different histories under flaky-quorum")
	}
	if a.Dropped != b.Dropped || a.Duplicated != b.Duplicated {
		t.Errorf("fault counters diverged: (%d,%d) vs (%d,%d)", a.Dropped, a.Duplicated, b.Dropped, b.Duplicated)
	}
	if a.Dropped == 0 {
		t.Error("flaky-quorum dropped nothing")
	}
}

// healingPlan instantiates the healing-partition built-in for n=5, t=2:
// halves {1,2,3} | {4,5}, lossy cut from tick 10, heal at tick 200.
func healingPlan(t *testing.T) *failstop.FaultPlan {
	t.Helper()
	plan, err := failstop.BuiltinFaultPlan("healing-partition", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &plan
}

// TestReliableHealingPartitionCrossBackend is the PR's acceptance
// criterion: under the lossy healing partition, a crash scheduled before
// the heal — suspected from the minority side, which cannot assemble the
// quorum of 3 on its own — is eventually detected by every correct process
// on both backends once the reliable-delivery layer retransmits the
// broadcast across the heal. The same scenario with the layer disabled
// starves (asserted deterministically on the simulated backend).
func TestReliableHealingPartitionCrossBackend(t *testing.T) {
	opts := failstop.Options{
		N: 5, T: 2, Seed: 7, MaxTime: 3000, Faults: healingPlan(t),
		Reliable: failstop.ReliableOptions{Enabled: true},
	}

	// Simulated backend, layer disabled: the once-only broadcast from 5 is
	// dropped at the cut, so no correct process ever detects the crash.
	noLayer := opts
	noLayer.Reliable = failstop.ReliableOptions{}
	bare := failstop.NewCluster(noLayer)
	bare.CrashAt(15, 1)
	bare.SuspectAt(20, 5, 1)
	bareRep := bare.Run()
	for p := failstop.ProcID(2); p <= 5; p++ {
		if idx := bareRep.History.FailedIndex(p, 1); idx >= 0 {
			t.Errorf("sim without reliable delivery: failed_%d(1) completed at %d despite the lossy cut", p, idx)
		}
	}
	if bareRep.Retransmits != 0 || bareRep.AckedDuplicates != 0 {
		t.Errorf("disabled layer reported work: retransmits=%d ackedDups=%d",
			bareRep.Retransmits, bareRep.AckedDuplicates)
	}

	// Simulated backend, layer enabled: retransmission carries the
	// suspicion across the heal and every correct process detects.
	rel := failstop.NewCluster(opts)
	rel.CrashAt(15, 1)
	rel.SuspectAt(20, 5, 1)
	relRep := rel.Run()
	for p := failstop.ProcID(2); p <= 5; p++ {
		if relRep.History.FailedIndex(p, 1) < 0 {
			t.Errorf("sim with reliable delivery: failed_%d(1) never completed after the heal", p)
		}
	}
	if relRep.Retransmits == 0 {
		t.Error("sim with reliable delivery recovered the detection without retransmitting")
	}

	// Live backend, layer enabled, same plan: ticks are 1ms, so the cut is
	// active [10ms, 200ms) — inject well inside it and wait for every
	// correct process to detect.
	lc := startLive(t, opts, failstop.Live{
		MinDelay: 1 * time.Millisecond, MaxDelay: 3 * time.Millisecond,
		Tick: 1 * time.Millisecond,
	})
	time.Sleep(25 * time.Millisecond) // inside the cut window
	lc.Crash(1)
	lc.Suspect(5, 1)
	deadline := time.Now().Add(5 * time.Second)
	allDetected := func(h failstop.History) bool {
		for p := failstop.ProcID(2); p <= 5; p++ {
			if h.FailedIndex(p, 1) < 0 {
				return false
			}
		}
		return true
	}
	for !allDetected(lc.History()) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	lc.Stop()
	h := lc.History()
	for p := failstop.ProcID(2); p <= 5; p++ {
		if h.FailedIndex(p, 1) < 0 {
			t.Errorf("live with reliable delivery: failed_%d(1) never completed", p)
		}
	}
	if lc.Metrics().Value("reliable_retransmits_total") == 0 {
		t.Error("live backend detected across the heal without retransmitting")
	}
}

// checkOneWayCutSemantics asserts what both backends must agree on under
// the one-way-cut plan for n=5, t=2: process 5's outbound links are cut
// from tick 10 while inbound delivery keeps working, so a majority-side
// suspicion of 5 completes everywhere — with no message from 5 ever
// delivered, even though 5 keeps receiving the protocol's broadcasts.
func checkOneWayCutSemantics(t *testing.T, backend string, h failstop.History) {
	t.Helper()
	for p := failstop.ProcID(1); p <= 4; p++ {
		if h.FailedIndex(p, 5) < 0 {
			t.Errorf("%s: failed_%d(5) never completed despite a full quorum among 1..4", backend, p)
		}
	}
	gotInbound := false
	for _, e := range h {
		if e.Kind != model.KindRecv {
			continue
		}
		if e.Peer == 5 && e.Proc != 5 {
			t.Errorf("%s: message from the mute process delivered: %s", backend, e)
		}
		if e.Proc == 5 && e.Peer != 5 {
			gotInbound = true
		}
	}
	if !gotInbound {
		t.Errorf("%s: mute process received nothing; the cut must be one-directional", backend)
	}
}

// TestOneWayCutCrossBackend: the simulator and the live runtime agree on
// the asymmetric (directed Pairs) cut semantics.
func TestOneWayCutCrossBackend(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("one-way-cut", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := failstop.Options{N: 5, T: 2, Seed: 4, Faults: &plan}
	c := failstop.NewCluster(opts)
	c.SuspectAt(20, 1, 5)
	rep := c.Run()
	checkOneWayCutSemantics(t, "sim", rep.History)

	lc := startLive(t, opts, fastLive)
	time.Sleep(5 * time.Millisecond) // past tick 10: the cut is standing
	lc.Suspect(1, 5)
	// The semantics check needs failed_p(5) for every p in 1..4, and the
	// suspicion reaches 2..4 a beat after 1's own detection completes — so
	// wait for all four, not just the suspecting process. It also needs a
	// receive at 5, which may come after all four have completed: a
	// worker the scheduler runs late still has its messages queued, and
	// Stop would discard them.
	settled := func() bool {
		h := lc.History()
		for p := failstop.ProcID(1); p <= 4; p++ {
			if h.FailedIndex(p, 5) < 0 {
				return false
			}
		}
		return slices.ContainsFunc(h, func(e model.Event) bool {
			return e.Kind == model.KindRecv && e.Proc == 5 && e.Peer != 5
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	checkOneWayCutSemantics(t, "live", lc.History())
}

// movingIsolatedAt returns which process the moving-partition builtin (for
// n processes) isolates at tick ts, or 0 before the rotation starts.
func movingIsolatedAt(n int, ts int64) failstop.ProcID {
	if ts < 10 {
		return 0
	}
	return failstop.ProcID((ts-10)/netadv.MovingPartitionStride%int64(n) + 1)
}

// checkMovingPartitionInvariant asserts what both backends must agree on
// under moving-partition: no message sent while one of its endpoints was
// isolated is ever delivered. Send times within margin ticks of a window
// boundary are skipped — the live runtime stamps the send event and
// consults the plan on separate clock reads, so boundary ticks are fuzzy
// there (the simulator passes with margin 0).
func checkMovingPartitionInvariant(t *testing.T, backend string, n int, h failstop.History, margin int64) {
	t.Helper()
	sendTime := make(map[model.MsgID]int64)
	sender := make(map[model.MsgID]failstop.ProcID)
	for _, e := range h {
		if e.Kind == model.KindSend {
			sendTime[e.Msg] = e.Time
			sender[e.Msg] = e.Proc
		}
	}
	checked := 0
	for _, e := range h {
		if e.Kind != model.KindRecv {
			continue
		}
		ts, ok := sendTime[e.Msg]
		if !ok {
			t.Errorf("%s: receive of unknown message %d", backend, e.Msg)
			continue
		}
		iso := movingIsolatedAt(n, ts)
		if iso == 0 {
			continue
		}
		if pos := (ts - 10) % netadv.MovingPartitionStride; pos < margin || pos >= netadv.MovingPartitionStride-margin {
			continue // too close to a rotation boundary to attribute
		}
		checked++
		if sender[e.Msg] == iso || e.Proc == iso {
			t.Errorf("%s: message sent at %d delivered although process %d was isolated: %s", backend, ts, iso, e)
		}
	}
	if checked == 0 {
		t.Errorf("%s: no deliveries with attributable send times; the invariant was never exercised", backend)
	}
}

// TestMovingPartitionCrossBackend: the rotating cut behaves identically on
// the deterministic simulator and the live runtime. On the simulator the
// outcome is exact: a suspicion raised while process 4 is isolated
// assembles its quorum among the three connected live processes, process 4
// starves, and nothing ever crosses an active cut. The live runtime must
// honor the same rotation (invariant + eventual detection), with retries
// because a wall-clock injection may land in an unlucky window.
func TestMovingPartitionCrossBackend(t *testing.T) {
	const n, tt = 5, 2
	plan, err := failstop.BuiltinFaultPlan("moving-partition", n, tt)
	if err != nil {
		t.Fatal(err)
	}
	const stride = netadv.MovingPartitionStride

	// Simulated backend. Windows: 1 isolated [10,70), 2 [70,130),
	// 3 [130,190), 4 [190,250), 5 [250,310), then wrap. Crash 1 inside its
	// own window; suspect it from 2 at tick 200, while 4 is dark: the
	// broadcast and its echoes stay inside 4's window, so 2, 3, and 5
	// assemble the quorum of 3 and 4 starves.
	opts := failstop.Options{N: n, T: tt, Seed: 5, MaxTime: 4000, Faults: &plan}
	c := failstop.NewCluster(opts)
	c.CrashAt(15, 1)
	c.SuspectAt(10+3*stride+10, 2, 1)
	rep := c.Run()
	for _, p := range []failstop.ProcID{2, 3, 5} {
		if rep.History.FailedIndex(p, 1) < 0 {
			t.Errorf("sim: failed_%d(1) never completed despite a quorum of connected processes", p)
		}
	}
	if idx := rep.History.FailedIndex(4, 1); idx >= 0 {
		t.Errorf("sim: failed_4(1) completed at %d although every voice was sent into 4's isolation window", idx)
	}
	if rep.Dropped == 0 {
		t.Error("sim: rotating cut dropped nothing")
	}
	checkMovingPartitionInvariant(t, "sim", n, rep.History, 0)

	// Live backend, same plan: 1ms ticks, so each process is dark for one
	// 60ms stride. Suspicions are re-raised from rotating suspecters until
	// one broadcast lands in a window that lets a quorum assemble — under a
	// moving (never permanent) partition detection must eventually succeed.
	lc := startLive(t, opts, failstop.Live{
		MinDelay: 1 * time.Millisecond, MaxDelay: 3 * time.Millisecond,
		Tick: 1 * time.Millisecond,
	})
	time.Sleep(15 * time.Millisecond)
	lc.Crash(1)
	detected := func(h failstop.History) int {
		got := 0
		for p := failstop.ProcID(2); p <= n; p++ {
			if h.FailedIndex(p, 1) >= 0 {
				got++
			}
		}
		return got
	}
	deadline := time.Now().Add(8 * time.Second)
	suspecters := []failstop.ProcID{2, 3, 5, 4}
	for i := 0; detected(lc.History()) < 3 && time.Now().Before(deadline); i++ {
		lc.Suspect(suspecters[i%len(suspecters)], 1)
		pause := time.Now().Add(600 * time.Millisecond)
		for detected(lc.History()) < 3 && time.Now().Before(pause) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	lc.Stop()
	h := lc.History()
	if got := detected(h); got < 3 {
		t.Errorf("live: only %d processes detected the crash under the moving partition, want >= 3", got)
	}
	checkMovingPartitionInvariant(t, "live", n, h, 8)
}

// recvGaps collects the delivery-time gaps between consecutive receives on
// the directed link from -> to.
func recvGaps(h failstop.History, from, to failstop.ProcID) []int64 {
	var times []int64
	for _, e := range h {
		if e.Kind == model.KindRecv && e.Proc == to && e.Peer == from {
			times = append(times, e.Time)
		}
	}
	gaps := make([]int64, 0, len(times))
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i]-times[i-1])
	}
	return gaps
}

// TestQueueDelayCrossBackend: bandwidth shaping spreads a burst identically
// on both backends. Process 1 raises three suspicions back to back, so its
// link to process 2 carries three SUSP broadcasts at once; with QueueDelay
// the copies must arrive at least one serialization slot apart — exactly
// one on the deterministic simulator, approximately on real clocks.
func TestQueueDelayCrossBackend(t *testing.T) {
	const delay = 40
	shaped := &failstop.FaultPlan{
		Name:  "shaped",
		Rules: []failstop.FaultRule{{QueueDelay: delay}},
	}

	// Simulated backend: base delay pinned to 1 tick, so the three SUSP
	// messages on link 1->2 arrive spaced exactly QueueDelay apart.
	opts := failstop.Options{
		N: 5, T: 2, Seed: 9, MinDelay: 1, MaxDelay: 1, MaxTime: 4000,
		Faults: shaped,
	}
	c := failstop.NewCluster(opts)
	c.SuspectAt(20, 1, 3)
	c.SuspectAt(20, 1, 4)
	c.SuspectAt(20, 1, 5)
	rep := c.Run()
	gaps := recvGaps(rep.History, 1, 2)
	if len(gaps) != 2 {
		t.Fatalf("sim: link 1->2 delivered %d messages, want 3", len(gaps)+1)
	}
	for i, g := range gaps {
		if g != delay {
			t.Errorf("sim: gap %d on link 1->2 = %d ticks, want exactly %d", i, g, delay)
		}
	}

	// Live backend, same plan: 1ms ticks. Scheduling jitter loosens the
	// bound but the serialization slots must still be visible.
	lc := startLive(t, opts, failstop.Live{
		MinDelay: 1 * time.Millisecond, MaxDelay: 1 * time.Millisecond,
		Tick: 1 * time.Millisecond,
	})
	lc.Suspect(1, 3)
	lc.Suspect(1, 4)
	lc.Suspect(1, 5)
	deadline := time.Now().Add(5 * time.Second)
	for len(recvGaps(lc.History(), 1, 2)) < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	lc.Stop()
	gaps = recvGaps(lc.History(), 1, 2)
	if len(gaps) < 2 {
		t.Fatalf("live: link 1->2 delivered %d messages, want 3", len(gaps)+1)
	}
	for i, g := range gaps {
		if g < delay-8 {
			t.Errorf("live: gap %d on link 1->2 = %d ticks, want >= %d (shaping lost)", i, g, delay-8)
		}
	}
}

// checkByzantineSemantics asserts what both backends must agree on for the
// byzantine-minority plan at n=5, t=2 with the interposer enabled: the
// plan's victims (the corruptor 5 and the equivocator 4) are convicted by
// the honest majority, and — via the §5 masking path — demoted to crashed
// processes that some honest process completes a detection of. No honest
// process is ever convicted, so no honest detection of 1..3 may complete.
func checkByzantineSemantics(t *testing.T, backend string, h failstop.History, detected int) {
	t.Helper()
	if detected == 0 {
		t.Errorf("%s: interposer enabled under Byzantine traffic but convicted nothing", backend)
	}
	for _, victim := range []failstop.ProcID{4, 5} {
		found := false
		for _, honest := range []failstop.ProcID{1, 2, 3} {
			if h.FailedIndex(honest, victim) >= 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: Byzantine victim %d was never demoted to a detected crash", backend, victim)
		}
	}
	for _, honest := range []failstop.ProcID{1, 2, 3} {
		for _, accuser := range []failstop.ProcID{1, 2, 3, 4, 5} {
			if accuser != honest && h.FailedIndex(accuser, honest) >= 0 {
				t.Errorf("%s: honest process %d was detected as failed by %d", backend, honest, accuser)
			}
		}
	}
}

// TestByzantineCrossBackend: the deterministic simulator and the live
// goroutine runtime agree on Byzantine fate semantics. The victims' own
// SUSP broadcasts are what the plan corrupts and equivocates; with the
// validation interposer on, both backends convict exactly the victims and
// crash them out of the membership.
func TestByzantineCrossBackend(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("byzantine-minority", 5, 2)
	if err != nil {
		t.Fatal(err)
	}

	opts := failstop.Options{
		N: 5, T: 2, Seed: 3, MaxTime: 5000, Faults: &plan,
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	}

	// Simulated backend.
	c := failstop.NewCluster(opts)
	c.SuspectAt(20, 4, 1)
	c.SuspectAt(24, 5, 2)
	rep := c.Run()
	checkByzantineSemantics(t, "sim", rep.History, rep.ByzDetected)
	if rep.Corrupted == 0 {
		t.Error("sim: plan corrupted nothing")
	}
	if rep.Equivocated == 0 {
		t.Error("sim: plan equivocated nothing")
	}

	// Live backend, same plan and interposer.
	lc := startLive(t, opts, fastLive)
	// The plan's rules activate at tick 10 (1ms of 100µs ticks). Let the
	// window open before injecting, as SuspectAt(20, ...) does on the
	// simulated backend — an earlier SUSP would cross the wire unmutated.
	time.Sleep(20 * time.Millisecond)
	lc.Suspect(4, 1)
	lc.Suspect(5, 2)
	deadline := time.Now().Add(5 * time.Second)
	demoted := func() bool {
		h := lc.History()
		for _, victim := range []failstop.ProcID{4, 5} {
			found := false
			for _, honest := range []failstop.ProcID{1, 2, 3} {
				if h.FailedIndex(honest, victim) >= 0 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	for !demoted() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	checkByzantineSemantics(t, "live", lc.History(), int(lc.Metrics().Value("byz_detected_total")))
}

// TestLiveMetricsCarryEveryCounter: LiveCluster.Metrics is the only way a
// counter leaves a live run, so it must name everything the simulated run's
// Report.Metrics names. With a process-fault plan, the reliable layer and
// the interposer all on, every sim_/reliable_/byz_ counter of the simulated
// snapshot has its live reading under net_/reliable_/byz_.
func TestLiveMetricsCarryEveryCounter(t *testing.T) {
	plan, err := failstop.BuiltinFaultPlan("restart-storm", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := failstop.Options{
		N: 5, T: 2, Seed: 11, MaxTime: 600, Faults: &plan, Recovery: failstop.RecoveryDurable,
		Reliable:  failstop.ReliableOptions{Enabled: true, MaxRetries: 3},
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	}
	rep := failstop.NewCluster(opts).Run()

	lc := startLive(t, opts, fastLive)
	lc.Stop()
	live := lc.Metrics()

	compared := 0
	for _, m := range rep.Metrics {
		name := m.Name
		if rest, ok := strings.CutPrefix(name, "sim_"); ok {
			name = "net_" + rest
		} else if !strings.HasPrefix(name, "reliable_") && !strings.HasPrefix(name, "byz_") {
			continue
		}
		if m.Kind != obs.KindCounter {
			continue // sim_links_live: the simulator's lazy link table has no live counterpart
		}
		compared++
		if _, ok := live.Get(name); !ok {
			t.Errorf("the simulated run reports %s; the live snapshot has no %s", m.Name, name)
		}
	}
	// 8 host counters + 2 reliable + 2 byz at the time of writing.
	if compared < 12 {
		t.Errorf("compared %d counters, want at least 12 (did a layer stop exporting on both backends?)", compared)
	}
}
