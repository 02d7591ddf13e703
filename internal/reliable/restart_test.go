package reliable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"failstop/internal/model"
	"failstop/internal/netadv"
	"failstop/internal/node"
	"failstop/internal/recovery"
	"failstop/internal/sim"
)

// runRestartLink wires sender(1) -> receiver(2) endpoints over a lossy sim
// network, crashes the sender mid-stream per the given one-shot lifetime,
// and injects one send every 10 ticks. Sends that land in the downtime
// window are dropped by the sim (a down process accepts no injections), so
// the caller knows exactly which payloads entered the link.
func runRestartLink(t *testing.T, seed int64, k int, mode recovery.Mode, lt recovery.Lifetime, rules ...netadv.Rule) (*recorder, *sim.Result) {
	t.Helper()
	plan := netadv.Plan{Name: "lossy", Rules: rules}
	if err := plan.Validate(2); err != nil {
		t.Fatal(err)
	}
	plane := netadv.NewPlane(plan, 2, seed)
	s := sim.New(sim.Config{
		N: 2, Seed: seed, MaxTime: 500000, Link: plane.Decide,
		Lifetimes: []recovery.Lifetime{lt},
		Recovery:  mode,
	})
	opts := Options{Enabled: true, RetryInterval: 25}
	sender := Wrap(idle{}, opts)
	rec := &recorder{}
	s.SetHandler(1, sender)
	s.SetHandler(2, Wrap(rec, opts))
	for i := 1; i <= k; i++ {
		payload := node.Payload{Tag: "APP", Data: []byte(fmt.Sprintf("m%03d", i))}
		s.At(int64(i*10), 1, func(ctx node.Context) {
			sender.Context(ctx).Send(2, payload)
		})
	}
	return rec, s.Run()
}

// TestDurableRestartNoSeqRegression is the crash-recovery property test: a
// durable sender restart never regresses the sequence numbers of the
// stubborn link. Across seeds and a lossy network, the receiver releases
// exactly the payloads that were accepted for sending (everything outside
// the downtime window), each exactly once, in FIFO order — frames unacked
// at the crash are restored from the snapshot and retransmitted, and
// post-restart sends continue from the persisted next sequence number
// instead of colliding with delivered ones.
func TestDurableRestartNoSeqRegression(t *testing.T) {
	const k = 40
	// Sender is down for ticks [157, 203): injections at 160..200 (i=16..20)
	// are lost, everything else must be released.
	lt := recovery.Lifetime{Proc: 1, Crash: 157, Restart: 203}
	rule := netadv.Rule{Drop: 0.3, JitterMax: 15}
	for seed := int64(0); seed < 12; seed++ {
		rec, res := runRestartLink(t, seed, k, recovery.Durable, lt, rule)
		if res.Stop != sim.StopDrained {
			t.Fatalf("seed %d: run hit the horizon (%v)", seed, res.Stop)
		}
		if res.Restarts != 1 || res.Recovered != 1 {
			t.Fatalf("seed %d: Restarts=%d Recovered=%d, want 1/1", seed, res.Restarts, res.Recovered)
		}
		var want []string
		for i := 1; i <= k; i++ {
			if at := int64(i * 10); at < lt.Crash || at >= lt.Restart {
				want = append(want, fmt.Sprintf("m%03d", i))
			}
		}
		if len(rec.released) != len(want) {
			t.Fatalf("seed %d: released %d payloads, want %d", seed, len(rec.released), len(want))
		}
		for i, p := range rec.released {
			if string(p.Data) != want[i] {
				t.Fatalf("seed %d: release %d = %q, want %q (duplicate or out-of-order after recovery)",
					seed, i, p.Data, want[i])
			}
		}
	}
}

// TestAmnesiaRestartLosesPostRestartSends documents the pathology durable
// recovery exists to prevent: an amnesiac sender restarts with a fresh
// sequence space, so its post-restart frames reuse sequence numbers the
// receiver has already released and die as duplicates — until the reused
// counter catches back up to the receiver's expectation. The sender
// silently loses exactly as many new payloads as it had delivered before
// the crash.
func TestAmnesiaRestartLosesPostRestartSends(t *testing.T) {
	lt := recovery.Lifetime{Proc: 1, Crash: 157, Restart: 203}
	rec, res := runRestartLink(t, 3, 40, recovery.Amnesia, lt)
	if res.Stop != sim.StopDrained {
		t.Fatalf("run hit the horizon (%v)", res.Stop)
	}
	// Pre-crash sends i=1..15 (ticks 10..150) are released, then the first
	// 15 post-restart sends (m021..m035, reused seqs 1..15) die as
	// duplicates; delivery resumes at m036 (reused seq 16 = nextExpected).
	var want []string
	for i := 1; i <= 15; i++ {
		want = append(want, fmt.Sprintf("m%03d", i))
	}
	for i := 36; i <= 40; i++ {
		want = append(want, fmt.Sprintf("m%03d", i))
	}
	if len(rec.released) != len(want) {
		t.Fatalf("amnesiac sender released %d payloads, want %d", len(rec.released), len(want))
	}
	for i, p := range rec.released {
		if string(p.Data) != want[i] {
			t.Fatalf("release %d = %q, want %q", i, p.Data, want[i])
		}
	}
	if res.AckedDuplicates == 0 {
		t.Error("no suppressed duplicates: the amnesia pathology did not manifest")
	}
}

// hostileSnapshot is what a damaged store could hand back: peers this
// process cannot send to (negative, beyond N, itself), and for the one valid
// peer an unacked list out of order with a zero and a never-assigned
// sequence number in it.
const hostileSnapshot = `{"peers":[
 {"peer":-3,"next_seq":2,"next_expected":1,"unacked":[{"seq":1,"tag":"APP"}]},
 {"peer":9,"next_seq":2,"next_expected":1,"unacked":[{"seq":1,"tag":"APP"}]},
 {"peer":1,"next_seq":2,"next_expected":1,"unacked":[{"seq":1,"tag":"APP"}]},
 {"peer":2,"next_seq":3,"next_expected":0,"unacked":[{"seq":3,"tag":"APP","data":"Yw=="},{"seq":99,"tag":"APP"},{"seq":1,"tag":"APP","data":"YQ=="},{"seq":0,"tag":"APP"}]}]}`

// TestRestartDropsOutOfRangePeers: a snapshot is read back from storage, so
// OnRestart drops what it cannot trust — a retry armed for peer -3 used to
// die in the host's "send to invalid process" — and restores the rest in
// sequence order, the invariant the prefix-retiring ack path leans on.
func TestRestartDropsOutOfRangePeers(t *testing.T) {
	ctx := newFakeCtx(1)
	e := Wrap(&recorder{}, Options{Enabled: true})
	e.OnRestart(ctx, []byte(hostileSnapshot))
	if len(ctx.timers) != 1 || ctx.timers["rel/2"] == 0 {
		t.Fatalf("timers armed after restart: %v, want only rel/2", ctx.timers)
	}
	e.OnTimer(ctx, "rel/2")
	var seqs []uint64
	for _, s := range ctx.sends {
		if s.to != 2 {
			t.Fatalf("retransmission to process %d, want only 2", s.to)
		}
		wf, ok := decodeFrame(s.p.Data)
		if !ok {
			t.Fatal("retransmitted an undecodable frame")
		}
		seqs = append(seqs, wf.seq)
	}
	if fmt.Sprint(seqs) != "[1 3]" {
		t.Errorf("retransmitted seqs %v, want [1 3] (ascending; 0 and 99 dropped)", seqs)
	}
	// A cumulative ack for 1 retires exactly the head.
	e.processAck(e.peer(2), 1)
	if q := e.peers.Get(2).unacked; len(q) != 1 || q[0].seq != 3 {
		t.Errorf("unacked after ack 1: %+v, want only seq 3", q)
	}
}

// restoredSnapshot is what Snapshot must return right after OnRestart(state)
// at process self of n: the stored peers read into a Go map — so the last
// entry for a peer wins — after the checks OnRestart makes of stored bytes,
// and listed once each in id order.
func restoredSnapshot(self model.ProcID, n int, state []byte) string {
	var snap endpointSnapshot
	if len(state) == 0 || json.Unmarshal(state, &snap) != nil {
		return "{}"
	}
	byPeer := map[model.ProcID]peerSnapshot{}
	for _, p := range snap.Peers {
		if p.Peer < 1 || int(p.Peer) > n || p.Peer == self {
			continue
		}
		p.NextExpected = max(p.NextExpected, 1)
		var kept []frameSnapshot
		for _, f := range p.Unacked {
			if f.Seq != 0 && f.Seq <= p.NextSeq {
				kept = append(kept, f)
			}
		}
		sort.Slice(kept, func(a, b int) bool { return kept[a].Seq < kept[b].Seq })
		p.Unacked = kept
		byPeer[p.Peer] = p
	}
	var out endpointSnapshot
	for id := model.ProcID(1); int(id) <= n; id++ {
		if p, ok := byPeer[id]; ok {
			out.Peers = append(out.Peers, p)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// FuzzReliableOnRestart: whatever bytes storage hands back, OnRestart must
// not panic or arm a retry the host would reject, must keep one state per
// peer — the snapshot's last entry for it — so that Snapshot then lists each
// peer once, in id order, and the endpoint must still send and release
// afterwards.
func FuzzReliableOnRestart(f *testing.F) {
	f.Add([]byte(hostileSnapshot))
	f.Add([]byte(`{"peers":[{"peer":2,"next_seq":2,"next_expected":3,"unacked":[{"seq":2,"tag":"SUSP","subject":3,"retries":1}]}],"inner":"AQI="}`))
	f.Add([]byte(`{"peers":[{"peer":2,"next_seq":18446744073709551615,"next_expected":18446744073709551615}]}`))
	f.Add([]byte(`{"peers":7}`))
	f.Add([]byte(nil))
	// Peer 3 named twice around peer 2: the second entry must replace the
	// first whole, not add its frames to it.
	f.Add([]byte(`{"peers":[{"peer":3,"next_seq":4,"next_expected":2,"unacked":[{"seq":4,"tag":"APP","retries":1},{"seq":3,"tag":"APP"}]},{"peer":2,"next_seq":1,"next_expected":1},{"peer":3,"next_seq":7,"next_expected":5,"unacked":[{"seq":6,"tag":"SUSP","subject":2}]}]}`))
	f.Add([]byte(`{"peers":[{"peer":2,"next_seq":5,"next_expected":1,"unacked":[{"seq":5,"tag":"APP"}]},{"peer":2,"next_seq":2,"next_expected":9}]}`))
	f.Fuzz(func(t *testing.T, state []byte) {
		ctx := newFakeCtx(1)
		rec := &recorder{}
		e := Wrap(rec, Options{Enabled: true, MaxRetries: 2})
		e.OnRestart(ctx, state)
		if got, want := string(e.Snapshot()), restoredSnapshot(1, ctx.N(), state); got != want {
			t.Fatalf("snapshot after restart = %s, want %s", got, want)
		}
		for round := 0; round < 4; round++ {
			for name := range ctx.timers {
				delete(ctx.timers, name)
				e.OnTimer(ctx, name)
			}
		}
		sent := len(ctx.sends)
		e.Context(ctx).Send(2, node.Payload{Tag: "APP", Data: []byte("after")})
		if len(ctx.sends) != sent+1 {
			t.Fatal("restarted endpoint did not send")
		}
		for _, s := range ctx.sends {
			if s.to < 2 || s.to > 3 {
				t.Fatalf("send to process %d: the host would reject it", s.to)
			}
		}
		// The next in-sequence frame from peer 3 is released.
		hdr := make([]byte, headerLen)
		hdr[0] = kindData
		binary.BigEndian.PutUint64(hdr[1:9], e.peer(3).nextExpected)
		e.OnMessage(ctx, 3, node.Payload{Tag: "APP", Data: hdr})
		if len(rec.released) != 1 {
			t.Fatalf("restarted endpoint released %d frames, want 1", len(rec.released))
		}
	})
}
