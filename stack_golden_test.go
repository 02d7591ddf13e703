// Golden digests of whole runs through the interposer stack (internal/byz
// and internal/reliable under the §5 detector): the byte-identity oracle for
// any rewrite of those two layers. Every digest below was captured at
// 37c4a06, before the layers' per-message paths were touched; a digest that
// moves means behaviour moved — never re-capture to make it pass. Two rows
// have been. "d/restart-storm durable" pinned a simulator bug: a stale timer
// occurrence — cancelled, replaced, or armed by an incarnation that had
// since crashed — fired in place of the live one (TestStaleTimerNeverFires,
// TestRestartDeadIncarnationTimerNeverFires in internal/sim). Its counts
// held; its hash is the one after that fix. "d/restart-storm amnesia byz
// only" pinned three replay convictions of the amnesiac's reused sequence
// numbers; the byz layer now discards a repeated frame however late it
// lands, and the row convicts no one.
package failstop_test

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"failstop"
)

// goldenChatter sends an application message to its successor every few
// ticks, so the detector's sFS2d gate has traffic to defer while detections
// are in flight.
type goldenChatter struct{ left int }

func (a *goldenChatter) Init(ctx failstop.Context, d *failstop.Detector) { ctx.SetTimer("chat", 7) }
func (a *goldenChatter) OnTimer(ctx failstop.Context, d *failstop.Detector, name string) {
	d.SendApp(ctx, 1+ctx.Self()%failstop.ProcID(ctx.N()), []byte{byte(a.left)})
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
	for _, k := range []string{"bad-mac", "equivocation"} {
		if notes[k] > 0 {
			fmt.Fprintf(&b, " %s=%d", k, notes[k])
		}
	}
	return b.String()
}

// TestGoldenStackRuns pins, byte for byte, what the detector → byz →
// reliable stack does on (a) the committed benchmark's stack-faulty op,
// (b) the Byzantine plan with and without the reliable layer — bad-mac and
// equivocation convictions, replayed ghosts discarded — (c) a healing partition under a
// bounded retry budget (abandonment and base skipping), at the default retry
// interval and at a fast one, (d) restart storms under durable and amnesiac
// recovery with both layers and with byz alone (Snapshot/OnRestart; the
// amnesiac's reused sequence numbers discarded as duplicates).
func TestGoldenStackRuns(t *testing.T) {
	rel := failstop.ReliableOptions{Enabled: true}
	bz := failstop.ByzantineOptions{Enabled: true}
	chatter := func(failstop.ProcID) failstop.App { return &goldenChatter{left: 40} }
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
			"flaky-quorum", func(c *failstop.Cluster) { c.CrashAt(100, 10) }, "7adbf0605190f74b/12585/19842 retx=417 byz=0/0"},
		{"a/stack-faulty seed 2", failstop.Options{N: 10, T: 3, Seed: 2, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Reliable: rel, Byzantine: bz},
			"flaky-quorum", func(c *failstop.Cluster) { c.CrashAt(100, 10) }, "e93535d13daef185/12633/19901 retx=403 byz=0/0"},
		{"a/stack-faulty seed 3", failstop.Options{N: 10, T: 3, Seed: 3, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Reliable: rel, Byzantine: bz},
			"flaky-quorum", func(c *failstop.Cluster) { c.CrashAt(100, 10) }, "7e015759f9b5d1de/12540/19768 retx=407 byz=0/0"},
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
		// A replayed heartbeat is discarded and convicts no one: the layer
		// cannot tell it from a late network copy.
		{"b/replaying heartbeats", failstop.Options{N: 5, T: 2, Seed: 3, MaxTime: 1500, HeartbeatEvery: 25, HeartbeatTimeout: 80, Byzantine: bz,
			Faults: &failstop.FaultPlan{Name: "replayer", Byz: []failstop.ByzFaultRule{{Victim: 5, From: 10, Tags: []string{"HB"}, Replay: 1, ReplayDelay: 400}}}},
			"replayer", nil, "27444c6b70441580/1888/2975 retx=0 byz=0/0"},
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
			"restart-storm", func(c *failstop.Cluster) { c.SuspectAt(50, 1, 3) }, "3b79533ea4f19125/390/633 retx=0 byz=0/0"},
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
// 1,500 ticks ≈ 6,700 messages) at 965 allocations a run: the ≈ 877 it
// measures out of the bulk of the run before it, plus a tenth (≈ 1,059 while
// byz kept a map per sender and each table made its first slots and records
// apart, ≈ 1,927 while byz sealed every heartbeat, ≈ 2,346 while the
// reliable layer sequenced, acked and resent every heartbeat, ≈ 4,150 while
// byz allocated each witness round, its voucher list, voucher set and held
// list and kept a rounds map per origin, and reliable grew each link's
// unacked queue from one frame;
// ≈ 4,205 while each run rebuilt its processes' timer tables, ≈ 4,460 while
// the interposers kept per-peer state in Go maps, ≈ 4,550 while each detector
// kept four maps, ≈ 4,615 while the facade read the run with four private
// indexes). It took ≈ 94,000 while pump re-sorted every round on every timer
// and echo and each frame header was its own allocation.
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
	if allocs > 965 {
		t.Errorf("stack-faulty op: %.0f allocations per run, budget 965", allocs)
	}
	t.Logf("stack-faulty op: %.0f allocations per run", allocs)
}
