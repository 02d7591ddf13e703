package reliable

// Benchmarks for the reliable-delivery layer's fast path: a fault-free
// (drop = 0) link where every frame is acked on first delivery and nothing
// is ever retransmitted. BenchmarkLinkBare is the baseline without the
// layer; BenchmarkLinkReliableDrop0 adds framing + acks + timer churn.
// The disabled configuration is the baseline itself, so its overhead is
// zero by construction, and the enabled-at-drop-0 delta is the number to
// watch (bench/ tracks it as reliable.ladder_*_per_msg.drop0).

import (
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/sim"
)

const benchSends = 200

// linkRun is one run of the link workload: benchSends application sends from
// process 1 to process 2 at ticks 1..benchSends, with or without the layer.
func linkRun(tb testing.TB, opts Options) {
	s := sim.New(sim.Config{N: 2, Seed: 1, MaxTime: 100000})
	rec := &recorder{}
	send := func(ctx node.Context, p node.Payload) { ctx.Send(2, p) }
	if opts.Enabled {
		sender := Wrap(idle{}, opts)
		s.SetHandler(1, sender)
		s.SetHandler(2, Wrap(rec, opts))
		send = func(ctx node.Context, p node.Payload) { sender.Context(ctx).Send(2, p) }
	} else {
		s.SetHandler(1, idle{})
		s.SetHandler(2, rec)
	}
	payload := node.Payload{Tag: "APP", Data: []byte("payload")}
	for k := 1; k <= benchSends; k++ {
		s.At(int64(k), 1, func(ctx node.Context) { send(ctx, payload) })
	}
	res := s.Run()
	if len(rec.released) != benchSends {
		tb.Fatalf("released %d, want %d", len(rec.released), benchSends)
	}
	if res.Retransmits != 0 {
		tb.Fatalf("fault-free link retransmitted %d frames", res.Retransmits)
	}
}

func benchLink(b *testing.B, opts Options) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		linkRun(b, opts)
	}
}

// BenchmarkLinkBare: the baseline — no reliable layer at all.
func BenchmarkLinkBare(b *testing.B) { benchLink(b, Options{}) }

// BenchmarkLinkReliableDrop0: the layer enabled on a fault-free link.
func BenchmarkLinkReliableDrop0(b *testing.B) { benchLink(b, Options{Enabled: true}) }

// TestReliableDrop0AllocBudget gates the layer's fault-free path: framing,
// acking and timer churn may add at most one allocation per application
// message to the bare link's (it was 4.18 while every header, ack, context
// wrapper and timer name was an allocation of its own).
func TestReliableDrop0AllocBudget(t *testing.T) {
	bare := testing.AllocsPerRun(5, func() { linkRun(t, Options{}) })
	rel := testing.AllocsPerRun(5, func() { linkRun(t, Options{Enabled: true}) })
	per := (rel - bare) / benchSends
	t.Logf("allocations per run: bare %.0f, reliable %.0f: %.2f per message", bare, rel, per)
	if per > 1 {
		t.Errorf("reliable layer at drop 0 adds %.2f allocations per message, budget 1", per)
	}
}

// TestEndpointFootprintSmall: what an endpoint reserves stays proportional
// to what it actually sends — 2,000 endpoints that each put three frames on
// the wire cost under 1.5 KiB apiece beyond the unacked queue, which starts
// at unackedFirstCap frames (1,224 B, a 1,280-byte block with its malloc
// header; the 1,152 B of 16 frames took the same block). About 1 KiB of that is the endpoint and its peer table (whose
// first chunk holds six links' records), so the bound holds the link's arena
// under 0.5 KiB — a page-sized first chunk would triple the figure. (The
// bound was 2 KiB all told, queue included, while a queue grew from one
// frame: 512 B for three.) An endpoint that
// sends three frames to each of 16 peers whose ids are spread over
// 1..10,000 costs under 1 KiB a peer more beyond its queues (≈ 28,700 B in
// all, ≈ 16,400 B while queues grew from one frame, ≈ 16,000 B while a Go map
// held the peers): a table sized by n or by the largest id, both 10,000,
// would add at least 5 KiB a peer.
func TestEndpointFootprintSmall(t *testing.T) {
	spread := make([]model.ProcID, 16)
	for i := range spread {
		spread[i] = model.ProcID(10_000 - 613*i)
	}
	queue := uint64(unackedFirstCap * unsafe.Sizeof(frame{}))
	for _, tc := range []struct {
		name  string
		peers []model.ProcID
		bound uint64
	}{
		{"one peer", []model.ProcID{2}, 1536 + queue},
		{"16 peers spread over 1..10,000", spread, 1536 + 16*(1024+queue)},
	} {
		ctx := newFakeCtx(1)
		ctx.n = 10_000
		build := func() {
			e := Wrap(idle{}, Options{Enabled: true})
			for _, p := range tc.peers {
				for k := 0; k < 3; k++ {
					e.Context(ctx).Send(p, node.Payload{Tag: "APP", Data: []byte("payload")})
				}
			}
			ctx.sends = ctx.sends[:0]
			clear(ctx.timers)
		}
		build() // size the fake context's send log and timer map
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 2000; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / 2000
		t.Logf("%s: an endpoint that sent 3 frames to each allocated %d B", tc.name, per)
		if per >= tc.bound {
			t.Errorf("%s: an endpoint that sent 3 frames to each allocated %d B, want < %d", tc.name, per, tc.bound)
		}
	}
}

// ackQueue returns a sending endpoint with depth unacked frames to peer 2.
func ackQueue(depth int) (*Endpoint, *fakeCtx) {
	ctx := newFakeCtx(1)
	e := Wrap(idle{}, Options{Enabled: true})
	for k := 0; k < depth; k++ {
		e.Context(ctx).Send(2, node.Payload{Tag: "APP", Data: []byte("payload")})
	}
	ctx.sends = nil
	return e, ctx
}

// benchAckRetire prices the ack path with depth frames outstanding: one
// more send, then the ack that retires the queue's head, so the depth is
// the same at every iteration.
func benchAckRetire(b *testing.B, depth int) {
	e, ctx := ackQueue(depth)
	payload := node.Payload{Tag: "APP", Data: []byte("payload")}
	ack := make([]byte, headerLen)
	ack[0] = kindAck
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Context(ctx).Send(2, payload)
		ctx.sends = ctx.sends[:0]
		binary.BigEndian.PutUint64(ack[9:17], uint64(i)+1)
		e.OnMessage(ctx, 2, node.Payload{Tag: TagAck, Data: ack})
	}
}

// BenchmarkAckRetire: send + cumulative ack with 1 and with 64 frames
// outstanding on the link.
func BenchmarkAckRetire(b *testing.B) {
	b.Run("depth=1", func(b *testing.B) { benchAckRetire(b, 1) })
	b.Run("depth=64", func(b *testing.B) { benchAckRetire(b, 64) })
}

// BenchmarkRetryRound prices one go-back-N retry round: 64 unacked frames
// to a peer that never answers, all of them due.
func BenchmarkRetryRound(b *testing.B) {
	e, ctx := ackQueue(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.now += 1 << 20 // past any backed-off interval: every frame is due
		e.OnTimer(ctx, "rel/2")
		ctx.sends = ctx.sends[:0]
	}
	if got, _ := e.ReliableStats(); got != 64*b.N {
		b.Fatalf("retransmitted %d frames, want %d", got, 64*b.N)
	}
}
