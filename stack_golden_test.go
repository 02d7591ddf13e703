// Golden digests of whole runs through the interposer stack (internal/byz
// and internal/reliable under the §5 detector): the byte-identity oracle for
// any rewrite of those two layers. Every digest below was captured at
// 37c4a06, before the layers' per-message paths were touched; a digest that
// moves means behaviour moved — never re-capture to make it pass. One row
// has been, because the behaviour it pinned was a simulator bug: in
// "d/restart-storm durable" a stale timer occurrence — cancelled, replaced,
// or armed by an incarnation that had since crashed — fired in place of the
// live one (TestStaleTimerNeverFires, TestRestartDeadIncarnationTimerNeverFires
// in internal/sim). Its counts held; its hash is the one after that fix.
package failstop_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"failstop"
)

// goldenChatter sends an application message to its successor (or to every
// peer) every few ticks, so held APP frames and the detector's sFS2d gate
// have traffic to defer while detections are in flight.
type goldenChatter struct {
	left int
	all  bool // every peer, not just the successor: one broadcast id, so echo quorums form
}

func (a *goldenChatter) Init(ctx failstop.Context, d *failstop.Detector) { ctx.SetTimer("chat", 7) }
func (a *goldenChatter) OnTimer(ctx failstop.Context, d *failstop.Detector, name string) {
	for q := failstop.ProcID(1); int(q) <= ctx.N(); q++ {
		if a.all && q != ctx.Self() || q == 1+ctx.Self()%failstop.ProcID(ctx.N()) {
			d.SendApp(ctx, q, []byte{byte(a.left)})
		}
	}
	if a.left--; a.left > 0 {
		ctx.SetTimer("chat", 7)
	}
}
func (a *goldenChatter) OnAppMessage(failstop.Context, *failstop.Detector, failstop.ProcID, []byte) {}
func (a *goldenChatter) OnFailed(failstop.Context, *failstop.Detector, failstop.ProcID)             {}

// stackDigest runs one cluster (span recorder at rate 1 attached) and folds
// everything the two interposers can reach into one FNV-64a: every history
// event field, the end time and the report's counters, the full metrics
// snapshot, every detector's quorum snapshots (targets ascending) and the
// span stream. The suffix names how many convictions of each kind the span
// stream holds, so the table shows which paths a case walks.
func stackDigest(t *testing.T, opts failstop.Options, plan string, inject func(c *failstop.Cluster)) string {
	t.Helper()
	if plan != "" && opts.Faults == nil {
		p, err := failstop.BuiltinFaultPlan(plan, opts.N, opts.T)
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = &p
	}
	opts.Spans = failstop.NewSpanRecorder(opts.Seed, 1)
	c := failstop.NewCluster(opts)
	if inject != nil {
		inject(c)
	}
	rep := c.Run()
	h := fnv.New64a()
	for _, e := range rep.History {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%s|%d\n", e.Seq, e.Proc, e.Kind, e.Peer, e.Target, e.Msg, e.Tag, e.Time)
	}
	fmt.Fprintf(h, "end=%d sent=%d delivered=%d dropped=%d dup=%d retx=%d ackdup=%d byzdet=%d byzmask=%d\n",
		rep.EndTime, rep.Sent, rep.Delivered, rep.Dropped, rep.Duplicated,
		rep.Retransmits, rep.AckedDuplicates, rep.ByzDetected, rep.ByzMasked)
	for _, m := range rep.Metrics {
		fmt.Fprintf(h, "m %s %d %d\n", m.Name, m.Kind, m.Value)
	}
	for p := failstop.ProcID(1); int(p) <= opts.N; p++ {
		qs := c.Detector(p).Quorums()
		for j := failstop.ProcID(1); int(j) <= opts.N; j++ {
			if q, ok := qs[j]; ok {
				fmt.Fprintf(h, "q %d %d %v\n", p, j, q)
			}
		}
	}
	notes := map[string]int{}
	for _, s := range rep.Spans {
		fmt.Fprintf(h, "s %d|%d|%d|%s|%d|%d|%d|%s|%d|%s\n",
			s.ID, s.Parent, s.Time, s.Kind, s.Proc, s.Peer, s.Msg, s.Tag, s.Target, s.Note)
		if s.Kind == "byz-detect" {
			notes[s.Note]++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%016x/%d/%d", h.Sum64(), len(rep.History), len(rep.Spans))
	fmt.Fprintf(&b, " retx=%d byz=%d/%d", rep.Retransmits, rep.ByzDetected, rep.ByzMasked)
	for _, k := range []string{"bad-mac", "equivocation", "replay"} {
		if notes[k] > 0 {
			fmt.Fprintf(&b, " %s=%d", k, notes[k])
		}
	}
	return b.String()
}

// TestGoldenStackRuns pins, byte for byte, what the detector → byz →
// reliable stack does on (a) the committed benchmark's stack-faulty op,
// (b) the Byzantine plan with and without the reliable layer — bad-mac,
// equivocation and replay convictions — (c) a healing partition under a
// bounded retry budget (abandonment and base skipping), at the default retry
// interval and at a fast one, (d) restart storms under durable and amnesiac
// recovery with both layers (Snapshot/OnRestart; the amnesiac's reused
// sequence numbers convicted as replays) and (e) held APP frames that meet a
// closed sFS2d gate and are released by a later timer's pump.
func TestGoldenStackRuns(t *testing.T) {
	rel := failstop.ReliableOptions{Enabled: true}
	bz := failstop.ByzantineOptions{Enabled: true}
	chatter := func(failstop.ProcID) failstop.App { return &goldenChatter{left: 40} }
	chatterAll := func(failstop.ProcID) failstop.App { return &goldenChatter{left: 40, all: true} }
	suspects := func(c *failstop.Cluster) {
		c.SuspectAt(20, 4, 1)
		c.SuspectAt(24, 5, 2)
	}
	cases := []struct {
		name   string
		opts   failstop.Options
		plan   string
		inject func(c *failstop.Cluster)
		want   string
	}{
		{"a/stack-faulty seed 1", failstop.Options{N: 10, T: 3, Seed: 1, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Reliable: rel, Byzantine: bz},
			"flaky-quorum", func(c *failstop.Cluster) { c.CrashAt(100, 10) }, "02f6589d99f4ceac/41417/68442 retx=4037 byz=0/0"},
		{"a/stack-faulty seed 2", failstop.Options{N: 10, T: 3, Seed: 2, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Reliable: rel, Byzantine: bz},
			"flaky-quorum", func(c *failstop.Cluster) { c.CrashAt(100, 10) }, "cb9260397c492a67/30282/50881 retx=2851 byz=0/0"},
		{"a/stack-faulty seed 3", failstop.Options{N: 10, T: 3, Seed: 3, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Reliable: rel, Byzantine: bz},
			"flaky-quorum", func(c *failstop.Cluster) { c.CrashAt(100, 10) }, "95f286cb9bfa8878/40923/67654 retx=4043 byz=0/0"},
		{"b/byzantine-minority byz", failstop.Options{N: 5, T: 2, Seed: 3, MaxTime: 5000, Byzantine: bz},
			"byzantine-minority", suspects, "eaf30589cd98ae01/223/362 retx=0 byz=8/10 bad-mac=4 equivocation=4"},
		{"b/byzantine-minority byz+rel", failstop.Options{N: 5, T: 2, Seed: 3, MaxTime: 5000, Byzantine: bz, Reliable: rel},
			"byzantine-minority", suspects, "6fbbad8795942a33/528/1097 retx=174 byz=8/7 bad-mac=4 equivocation=4"},
		{"b/byzantine-minority n=10", failstop.Options{N: 10, T: 3, Seed: 7, MaxTime: 5000, MaxDelay: 60, Byzantine: bz},
			"byzantine-minority", func(c *failstop.Cluster) {
				c.SuspectAt(20, 8, 1)
				c.SuspectAt(30, 10, 2)
				c.SuspectAt(200, 8, 3)
				c.SuspectAt(700, 8, 2)
			}, "69aa3ff33c3f7cb3/3114/4937 retx=0 byz=27/77 bad-mac=9 equivocation=18"},
		{"b/replaying heartbeats", failstop.Options{N: 5, T: 2, Seed: 3, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Byzantine: bz,
			Faults: &failstop.FaultPlan{Name: "replayer", Byz: []failstop.ByzFaultRule{{Victim: 5, From: 10, Tags: []string{"HB"}, Replay: 1, ReplayDelay: 400}}}},
			"replayer", nil, "eea229edcb292bf2/1888/2979 retx=0 byz=4/32 replay=4"},
		{"c/healing-partition max-retries 3", failstop.Options{N: 6, T: 2, Seed: 5, MaxTime: 4000,
			Reliable: failstop.ReliableOptions{Enabled: true, MaxRetries: 3}, NewApp: chatter},
			"healing-partition", func(c *failstop.Cluster) {
				c.SuspectAt(30, 1, 6)
				c.SuspectAt(40, 5, 2)
			}, "3a15206a9de96d10/1394/2816 retx=387 byz=0/0"},
		{"c/healing-partition fast retries", failstop.Options{N: 6, T: 2, Seed: 5, MaxTime: 4000,
			Reliable: failstop.ReliableOptions{Enabled: true, RetryInterval: 10, MaxRetries: 3}, NewApp: chatter},
			"healing-partition", func(c *failstop.Cluster) { c.SuspectAt(30, 1, 2) }, "03fff34c49b4077d/1747/3232 retx=397 byz=0/0"},
		{"d/restart-storm durable", failstop.Options{N: 5, T: 2, Seed: 11, MaxTime: 2000, Reliable: rel, Byzantine: bz,
			Recovery: failstop.RecoveryDurable, NewApp: chatter},
			"restart-storm", func(c *failstop.Cluster) { c.SuspectAt(50, 1, 3) }, "f3ffcb5444b59196/1036/2027 retx=289 byz=0/0"},
		{"d/restart-storm amnesia", failstop.Options{N: 5, T: 2, Seed: 11, MaxTime: 2000, Reliable: rel, Byzantine: bz,
			Recovery: failstop.RecoveryAmnesia, NewApp: chatter},
			"restart-storm", func(c *failstop.Cluster) { c.SuspectAt(50, 1, 3) }, "841ec60482155b7a/846/1597 retx=183 byz=0/0"},
		{"d/restart-storm amnesia byz only", failstop.Options{N: 5, T: 2, Seed: 11, MaxTime: 2000, Byzantine: bz,
			Recovery: failstop.RecoveryAmnesia, NewApp: chatter},
			"restart-storm", func(c *failstop.Cluster) { c.SuspectAt(50, 1, 3) }, "9dd33933341dbd69/379/635 retx=0 byz=3/4 replay=3"},
		{"e/held APP meets closed gate", failstop.Options{N: 6, T: 2, Seed: 9, MaxTime: 3000, Reliable: rel,
			Byzantine: failstop.ByzantineOptions{Enabled: true, EchoTags: []string{"SUSP", "APP"}}, NewApp: chatterAll},
			"", func(c *failstop.Cluster) {
				c.SuspectAt(30, 1, 6)
				c.SuspectAt(33, 2, 5)
			}, "93e1a6cf2d18aca9/14551/29912 retx=4946 byz=0/0"},
		{"e/held APP, flaky quorum, byz only", failstop.Options{N: 6, T: 2, Seed: 4, MaxTime: 3000, MaxDelay: 40,
			Byzantine: failstop.ByzantineOptions{Enabled: true, EchoTags: []string{"SUSP", "APP"}}, NewApp: chatterAll},
			"flaky-quorum", func(c *failstop.Cluster) {
				c.SuspectAt(30, 1, 6)
				c.SuspectAt(33, 2, 5)
			}, "150c24d5b164ba6a/6283/10058 retx=0 byz=0/0"},
		{"e/held APP only, heartbeat suspicions", failstop.Options{N: 6, T: 2, Seed: 1, MaxTime: 1200, MaxDelay: 30, HeartbeatEvery: 25, HeartbeatTimeout: 80,
			Byzantine: failstop.ByzantineOptions{Enabled: true, EchoTags: []string{"APP"}}, NewApp: chatterAll},
			"", func(c *failstop.Cluster) { c.CrashAt(100, 6) }, "85a093b98d58aa29/10936/16933 retx=0 byz=0/0"},
	}
	for _, tc := range cases {
		got := stackDigest(t, tc.opts, tc.plan, tc.inject)
		if got != tc.want {
			t.Errorf("%s: digest %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestStackFaultyAllocBudget gates the committed benchmark's stack-faulty op
// (flaky-quorum at n=10, heartbeats, reliable + byz, p10 crashed at 100,
// 1,500 ticks ≈ 20,600 messages) at 4,570 allocations a run: the ≈ 4,155 it
// measures out of the bulk of the run before it, plus a tenth (≈ 4,205 while
// each run rebuilt its processes' timer tables, ≈ 4,460 while
// the interposers kept per-peer state in Go maps, ≈ 4,550 while each
// detector kept four maps, ≈ 4,615 while the facade read the run with four
// private indexes). It took ≈ 94,000 while pump re-sorted every round on
// every timer and echo and each frame header was its own allocation.
func TestStackFaultyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation measurement")
	}
	plan, err := failstop.BuiltinFaultPlan("flaky-quorum", 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		c := failstop.NewCluster(failstop.Options{
			N: 10, T: 3, Seed: 7, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Faults: &plan,
			Reliable:  failstop.ReliableOptions{Enabled: true},
			Byzantine: failstop.ByzantineOptions{Enabled: true},
		})
		c.CrashAt(100, 10)
		if rep := c.Run(); rep.Retransmits == 0 {
			t.Fatal("no retransmissions: the op is not the benchmark's")
		}
	})
	if allocs > 4570 {
		t.Errorf("stack-faulty op: %.0f allocations per run, budget 4570", allocs)
	}
	t.Logf("stack-faulty op: %.0f allocations per run", allocs)
}
