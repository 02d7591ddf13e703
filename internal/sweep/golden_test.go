package sweep

import (
	"fmt"
	"hash/fnv"
	"testing"

	"failstop/internal/cluster"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/recovery"
	"failstop/internal/sim"
)

// chatterApp sends an application message to its successor every few ticks,
// so the detector's sFS2d gate (Accepts) has traffic to defer while the
// schedule's detections are in flight.
type chatterApp struct{ left int }

func (a *chatterApp) Init(ctx node.Context, d *core.Detector) { ctx.SetTimer("chat", 7) }
func (a *chatterApp) OnTimer(ctx node.Context, d *core.Detector, name string) {
	d.SendApp(ctx, 1+ctx.Self()%model.ProcID(ctx.N()), []byte{byte(a.left)})
	if a.left--; a.left > 0 {
		ctx.SetTimer("chat", 7)
	}
}
func (a *chatterApp) OnAppMessage(node.Context, *core.Detector, model.ProcID, []byte) {}
func (a *chatterApp) OnFailed(node.Context, *core.Detector, model.ProcID)             {}

// goldenDetectorRun runs one builtin schedule over the standard cluster and
// digests the surface the detector's sender-set representation reaches: the
// full history, every detector's quorum snapshots (targets ascending) and
// every detector's durable Snapshot bytes.
func goldenDetectorRun(t *testing.T, schedule string, nt NT, policy core.QuorumPolicy, seed int64, lifetimes []recovery.Lifetime) string {
	t.Helper()
	sched, ok := Builtin(schedule)
	if !ok {
		t.Fatalf("no builtin schedule %q", schedule)
	}
	var delay sim.DelayFn
	if sched.Delay != nil {
		delay = sched.Delay(nt, seed)
	}
	mode := recovery.Off
	if len(lifetimes) > 0 {
		mode = recovery.Durable
	}
	c := cluster.New(cluster.Options{
		Sim: sim.Config{N: nt.N, Seed: seed, Delay: delay, Lifetimes: lifetimes, Recovery: mode},
		Det: core.Config{N: nt.N, T: nt.T, Policy: policy},
		App: func(model.ProcID) core.App { return &chatterApp{left: 12} },
	})
	for _, f := range sched.Faults(nt, seed) {
		switch f.Kind {
		case FaultCrash:
			c.CrashAt(f.At, f.Proc)
		case FaultSuspect:
			c.SuspectAt(f.At, f.Proc, f.Target)
		}
	}
	res := c.Run()
	h := fnv.New64a()
	for _, e := range res.History {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%s|%d\n", e.Seq, e.Proc, e.Kind, e.Peer, e.Target, e.Msg, e.Tag, e.Time)
	}
	fmt.Fprintf(h, "end=%d stop=%d blocked=%+v\n", res.EndTime, res.Stop, res.Blocked)
	detections := 0
	for p := model.ProcID(1); int(p) <= nt.N; p++ {
		d := c.Detector(p)
		qs := d.Quorums()
		for j := model.ProcID(1); int(j) <= nt.N; j++ {
			if q, ok := qs[j]; ok {
				detections++
				fmt.Fprintf(h, "q %d %d %v\n", p, j, q)
			}
		}
		fmt.Fprintf(h, "snap %d %s\n", p, d.Snapshot())
	}
	return fmt.Sprintf("%016x/%d/%d", h.Sum64(), len(res.History), detections)
}

// TestGoldenDetectorRuns pins, byte for byte, what the §5 detector does
// under the two schedules the sweep leans on, under both quorum policies,
// plus a durable crash-restart in the middle of the crash schedule's
// detections (Snapshot → OnRestart round trip with live sender sets). The
// digests were captured before Detector.counts became a bitset.
func TestGoldenDetectorRuns(t *testing.T) {
	restart := []recovery.Lifetime{{Proc: 4, Crash: 58, Restart: 60}}
	cases := []struct {
		schedule  string
		nt        NT
		policy    core.QuorumPolicy
		lifetimes []recovery.Lifetime
		want      string
	}{
		{"crash", NT{20, 3}, core.FixedQuorum, nil, "a7ad253f3539ed12/2286/51"},
		{"crash", NT{20, 3}, core.AllButSuspected, nil, "87e55c30be753c9e/2286/51"},
		{"false-suspicion", NT{10, 3}, core.FixedQuorum, nil, "ca21c2a26d87911d/404/9"},
		{"false-suspicion", NT{10, 3}, core.AllButSuspected, nil, "f0ff839c215dcfce/404/9"},
		{"crash", NT{20, 3}, core.FixedQuorum, restart, "6e3bc7bab0c94196/2270/49"},
		{"crash", NT{20, 3}, core.AllButSuspected, restart, "7f75f25c696cfcfb/2269/48"},
	}
	for _, tc := range cases {
		got := goldenDetectorRun(t, tc.schedule, tc.nt, tc.policy, 5, tc.lifetimes)
		if got != tc.want {
			t.Errorf("%s %v policy=%d restart=%v: digest %q, want %q",
				tc.schedule, tc.nt, tc.policy, len(tc.lifetimes) > 0, got, tc.want)
		}
	}
}
