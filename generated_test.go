package failstop_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"failstop"
	"failstop/internal/byz"
	"failstop/internal/fd"
	"failstop/internal/model"
	"failstop/internal/reliable"
)

// stackDraw is one generated run through both interposers — reliable links
// under the Byzantine→crash layer — on a network that loses, duplicates,
// reorders and delays messages, with a script of crashes and suspicions and
// up to two processes the plan crashes and restarts. The plan has no
// Byzantine rules: no sender misbehaves, so every conviction the layer makes
// is a fault — except after an amnesiac restart, whose reused sequence
// numbers the layer convicts as replays by design.
type stackDraw struct {
	opts     failstop.Options
	crashes  []scriptCrash
	suspects []scriptSuspect
}

type scriptCrash struct {
	at int64
	p  failstop.ProcID
}

type scriptSuspect struct {
	at   int64
	i, j failstop.ProcID
}

func (d stackDraw) String() string {
	return fmt.Sprintf("n=%d t=%d seed=%d maxtime=%d hb=%d/%d rules=%+v procs=%+v recovery=%v crashes=%v suspects=%v",
		d.opts.N, d.opts.T, d.opts.Seed, d.opts.MaxTime, d.opts.HeartbeatEvery, d.opts.HeartbeatTimeout,
		d.opts.Faults.Rules, d.opts.Faults.Procs, d.opts.Recovery, d.crashes, d.suspects)
}

// drawer reads a draw's choices from bytes. Past their end every choice is
// 0, so any byte string — a fuzzer's input or a seed's expansion — is a draw.
type drawer struct{ b []byte }

// intn returns a choice in 0..n-1, reading as many bytes as n needs.
func (d *drawer) intn(n int) int {
	v := 0
	for span := 1; span < n; span <<= 8 {
		v <<= 8
		if len(d.b) > 0 {
			v |= int(d.b[0])
			d.b = d.b[1:]
		}
	}
	return v % n
}

// prob returns a probability in 0..0.5, in steps of 0.05.
func (d *drawer) prob() float64 { return float64(d.intn(11)) / 20 }

// generatedTags are the tags a rule may select: the detector's suspicions,
// the heartbeats, the witnesses' echoes and the reliable layer's acks.
var generatedTags = []string{failstop.DefaultSuspTag, fd.TagHeartbeat, byz.TagEcho, reliable.TagAck}

// drawStack turns bytes into a draw: n in 3..8, T up to Corollary 8's bound,
// a horizon, heartbeats or none, one to three network rules, a script whose
// victims — processes crashed or suspected — number at most T, and at least
// one when there are no heartbeats, and zero to two process rules with
// restarts under amnesia or durable recovery (the restarts reach the
// detector's and both interposers' OnRestart).
func drawStack(data []byte) stackDraw {
	d := &drawer{b: data}
	n := 3 + d.intn(6)
	t := 1 + d.intn(max(failstop.MaxTolerable(n), 1))
	opts := failstop.Options{
		N: n, T: t, Seed: int64(d.intn(1 << 16)),
		MaxTime:   400 + 100*int64(d.intn(12)),
		Reliable:  failstop.ReliableOptions{Enabled: true},
		Byzantine: failstop.ByzantineOptions{Enabled: true},
	}
	if d.intn(2) == 1 {
		opts.HeartbeatEvery = 10 + int64(d.intn(31))
		// A timeout of 0 never suspects: heartbeats flow, and only the
		// script makes victims.
		if d.intn(2) == 1 {
			opts.HeartbeatTimeout = opts.HeartbeatEvery * int64(4+d.intn(5))
		}
	}
	plan := &failstop.FaultPlan{Name: "generated"}
	for k := 1 + d.intn(3); k > 0; k-- {
		r := failstop.FaultRule{
			Drop: d.prob(), Duplicate: d.prob(), Reorder: d.prob(),
			JitterMax: int64(d.intn(4)) * 5,
		}
		if r.Drop == 0 && r.Duplicate == 0 && r.Reorder == 0 && r.JitterMax == 0 {
			r.JitterMax = 3 // Plan.Validate refuses a rule with no effect
		}
		for _, tag := range generatedTags {
			if d.intn(3) == 0 {
				r.Tags = append(r.Tags, tag)
			}
		}
		switch d.intn(3) {
		case 1:
			r.From = int64(d.intn(int(opts.MaxTime / 2)))
			r.Until = r.From + 1 + int64(d.intn(int(opts.MaxTime/2)))
		case 2:
			r.From = int64(d.intn(100))
			r.Period = 10 + int64(d.intn(91))
			r.ActiveFor = 1 + int64(d.intn(int(r.Period)))
		}
		plan.Rules = append(plan.Rules, r)
	}
	opts.Faults = plan
	draw := stackDraw{opts: opts}
	victims := d.intn(t + 1)
	if victims == 0 && opts.HeartbeatEvery == 0 {
		victims = 1 // with no victim and no heartbeat the run sends nothing
	}
	for k := victims; k > 0; k-- {
		victim := failstop.ProcID(1 + d.intn(n))
		at := 1 + int64(d.intn(int(opts.MaxTime/2)))
		kind := d.intn(3)
		if kind == 0 && opts.HeartbeatEvery == 0 {
			kind = 2 // without heartbeats only a suspicion notices a crash
		}
		switch kind {
		case 0:
			draw.crashes = append(draw.crashes, scriptCrash{at, victim})
		case 1:
			draw.suspects = append(draw.suspects, scriptSuspect{at, other(victim, d.intn(n-1)), victim})
		default:
			draw.crashes = append(draw.crashes, scriptCrash{at, victim})
			draw.suspects = append(draw.suspects, scriptSuspect{at + int64(d.intn(50)), other(victim, d.intn(n-1)), victim})
		}
	}
	// Zero to two process rules, each on a process of its own, crash their
	// victim and bring it back — once, or every Period ticks — blank or from
	// its snapshot.
	if k := d.intn(3); k > 0 {
		draw.opts.Recovery = []failstop.RecoveryMode{failstop.RecoveryAmnesia, failstop.RecoveryDurable}[d.intn(2)]
		first := failstop.ProcID(1 + d.intn(n))
		for _, p := range []failstop.ProcID{first, other(first, d.intn(n-1))}[:k] {
			r := failstop.ProcFaultRule{Proc: p, CrashAt: 1 + int64(d.intn(int(opts.MaxTime/2)))}
			if d.intn(2) == 0 {
				r.RestartAt = r.CrashAt + 1 + int64(d.intn(100))
			} else {
				r.Period = 20 + int64(d.intn(81))
				r.ActiveFor = 1 + int64(d.intn(int(r.Period-1)))
				if d.intn(2) == 1 {
					r.Until = r.CrashAt + int64(d.intn(int(opts.MaxTime)))
				}
			}
			plan.Procs = append(plan.Procs, r)
		}
	}
	return draw
}

// other returns the k-th process (from 0) of 1..n other than p.
func other(p failstop.ProcID, k int) failstop.ProcID {
	if q := failstop.ProcID(1 + k); q < p {
		return q
	}
	return failstop.ProcID(2 + k)
}

// inject schedules the draw's script on c.
func (d stackDraw) inject(c *failstop.Cluster) {
	for _, cr := range d.crashes {
		c.CrashAt(cr.at, cr.p)
	}
	for _, s := range d.suspects {
		c.SuspectAt(s.at, s.i, s.j)
	}
}

// checkGeneratedStack holds one draw to its properties: both validators
// accept it; unless a process restarts with amnesia, the layer convicts no
// one, since the reliable layer dedups below it and no honest sender can
// look like a replayer or an equivocator; sFS2c and sFS2d hold, and sFS2b
// does whenever at most T processes are detected (Theorem 7's quorums then
// intersect across every failed-before cycle there can be); and the run
// digests the same twice, the second time after a run of another shape
// (poisonDraw), whose recycled simulator state the second run inherits.
func checkGeneratedStack(t *testing.T, d stackDraw) {
	t.Helper()
	if err := d.opts.Validate(); err != nil {
		t.Fatalf("Options.Validate refused a draw: %v\n%v", err, d)
	}
	if err := d.opts.Faults.Validate(d.opts.N); err != nil {
		t.Fatalf("Plan.Validate refused a draw: %v\n%v", err, d)
	}
	c := failstop.NewCluster(d.opts)
	d.inject(c)
	rep := c.Run()
	if rep.ByzDetected != 0 && d.opts.Recovery != failstop.RecoveryAmnesia {
		t.Errorf("%d convictions with no Byzantine rule in the plan\n%v", rep.ByzDetected, d)
	}
	detected := map[model.ProcID]bool{}
	for _, det := range rep.History.Detections() {
		detected[det.Detected] = true
	}
	for _, v := range rep.Verdicts {
		switch {
		case v.Property == "sFS2b" && len(detected) > d.opts.T:
		case v.Property == "sFS2b", v.Property == "sFS2c", v.Property == "sFS2d":
			if !v.Holds {
				t.Errorf("%s with %d processes detected\n%v", v, len(detected), d)
			}
		}
	}
	a := stackDigest(t, d.opts, "", d.inject)
	p := poisonDraw(d)
	stackDigest(t, p.opts, "", p.inject)
	if b := stackDigest(t, d.opts, "", d.inject); a != b {
		t.Errorf("one draw ran twice digests %s then, after %v, %s\n%v", a, p, b, d)
	}
}

// poisonDraw returns a draw of another shape than d: more processes, another
// plan, and at least one process that crashes and restarts. Run between two
// runs of d, it retires the bulk the second one draws, so that run starts
// from tables, slab, links and timers another run left behind.
func poisonDraw(d stackDraw) stackDraw {
	for seed := uint64(d.opts.Seed) + 1; ; seed++ {
		p := drawStack(seedBytes(seed))
		if len(p.opts.Faults.Procs) > 0 {
			p.opts.N = max(p.opts.N, d.opts.N) + 1 // the draw's ids and T stay valid at a larger n
			return p
		}
	}
}

// seedBytes expands a seed into the bytes of a draw.
func seedBytes(seed uint64) []byte {
	b := make([]byte, 64)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], model.Mix(seed*0x9e3779b97f4a7c15+uint64(i)))
	}
	return b
}

// TestGeneratedStackRuns holds 30 fixed draws to the generator's properties.
func TestGeneratedStackRuns(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		d := drawStack(seedBytes(seed))
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkGeneratedStack(t, d) })
	}
}

// FuzzGeneratedStackRun reads a draw from the fuzzer's bytes.
func FuzzGeneratedStackRun(f *testing.F) {
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seedBytes(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkGeneratedStack(t, drawStack(data)) })
}
