package byz

import (
	"runtime"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
)

// BenchmarkSealOpen prices one authenticated frame round trip: seal a
// payload under the per-sender key and open it at the receiver. This is
// the per-message cost the interposer adds to every send and delivery.
func BenchmarkSealOpen(b *testing.B) {
	p := node.Payload{Tag: "SUSP", Subject: 3, Data: []byte(`{"suspect":3}`)}
	body := make([]byte, headerLen+len(p.Data))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealBody(body, 2, uint64(i)+1, 1, p)
		if _, _, _, ok := openBody(2, p.Tag, p.Subject, body); !ok {
			b.Fatal("seal/open round trip failed")
		}
	}
}

// benchSink swallows deliveries; the benchmark measures the interposer,
// not the protocol above it.
type benchSink struct{ delivered int }

func (s *benchSink) Init(ctx node.Context) {}
func (s *benchSink) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	s.delivered++
}
func (s *benchSink) OnTimer(ctx node.Context, name string) {}

// benchCtx is a minimal host context: sends vanish, time stands still.
type benchCtx struct{ self model.ProcID }

func (c benchCtx) Self() model.ProcID                            { return c.self }
func (c benchCtx) N() int                                        { return 5 }
func (c benchCtx) Now() int64                                    { return 0 }
func (c benchCtx) Send(to model.ProcID, p node.Payload)          {}
func (c benchCtx) SetTimer(name string, delay int64)             {}
func (c benchCtx) CancelTimer(name string)                       {}
func (c benchCtx) EmitFailed(j model.ProcID)                     {}
func (c benchCtx) CrashSelf()                                    {}
func (c benchCtx) EmitInternal(tag string, subject model.ProcID) {}

// BenchmarkEndpointDeliver prices a non-held delivery through the full
// endpoint path: authenticate, replay-check, release to the inner
// handler. APP traffic is not echo-gated, so this is the common case for
// application frames under the interposer.
func BenchmarkEndpointDeliver(b *testing.B) {
	sink := &benchSink{}
	ctx := benchCtx{self: 2}
	const window = 64
	frames := make([][]byte, window)
	for i := range frames {
		frames[i] = sealed(1, uint64(i)+1, 1, node.Payload{Tag: "APP", Data: []byte(`{"round":1}`)})
	}
	ep := Wrap(sink, Options{Enabled: true})
	ep.Init(ctx)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh endpoint every window keeps the per-link sequence
		// numbers unseen, so the duplicate watermark never short-circuits
		// the path being measured.
		if i%window == 0 {
			ep = Wrap(sink, Options{Enabled: true})
			ep.Init(ctx)
		}
		ep.OnMessage(ctx, 1, node.Payload{Tag: "APP", Data: frames[i%window]})
	}
	if sink.delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// heldRounds returns a receiving endpoint (process 2 of n) that has been
// handed one held-class broadcast from process 1 per round, each under its
// own broadcast id. At n = 2 the witness threshold, a majority of the one
// other process, is the receiver alone, so every round is released on arrival
// and settles; at n = 5 it is three, no echo comes, and every round stays open.
func heldRounds(tb testing.TB, rounds, n int) *Endpoint {
	tb.Helper()
	opts := Options{Enabled: true}
	wire := &byzFakeCtx{self: 1, n: n}
	sender := Wrap(&benchSink{}, opts)
	sender.Init(wire)
	for i := 0; i < rounds; i++ {
		sender.Context(wire).Send(2, node.Payload{Tag: "SUSP", Subject: 3, Data: []byte{byte(i), byte(i >> 8)}})
	}
	sink := &benchSink{}
	ep := Wrap(sink, opts)
	ep.Init(&byzFakeCtx{self: 2, n: n}) // the threshold is resolved here, once
	ctx := benchCtx{self: 2}
	for _, s := range wire.sends {
		ep.OnMessage(ctx, 1, s.p)
	}
	want := 0
	if n == 2 {
		want = rounds
	}
	if sink.delivered != want {
		tb.Fatalf("released %d of %d rounds at n=%d, want %d", sink.delivered, rounds, n, want)
	}
	return ep
}

// BenchmarkPumpSettled prices a timer at an endpoint whose 1,000 witness
// rounds have all been released with a single digest: the pump has nothing
// to look at.
func BenchmarkPumpSettled(b *testing.B) {
	ep, ctx := heldRounds(b, 1000, 2), benchCtx{self: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.OnTimer(ctx, "tick")
	}
}

// BenchmarkPumpOpen prices a timer at an endpoint with 64 rounds still
// waiting for their witness quorum: one pass over the worklist.
func BenchmarkPumpOpen(b *testing.B) {
	ep, ctx := heldRounds(b, 64, 5), benchCtx{self: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep.OnTimer(ctx, "tick")
	}
}

// TestEndpointFootprintLinear: an endpoint at process 1 of 10,000 that seals
// one frame to each of 16 peers whose ids are spread over 1..10,000 and
// opens one from each costs under 1 KiB a peer (≈ 10,700 B in all, ≈ 10,800 B
// while Go maps held the peers), most of it the 256-byte first arena chunk
// of each link and the sequence map of each sender: a table sized by n or by
// the largest id, both 10,000, would add at least 5 KiB a peer.
func TestEndpointFootprintLinear(t *testing.T) {
	ctx := &byzFakeCtx{self: 1, n: 10_000}
	app := node.Payload{Tag: "APP", Data: []byte("payload")}
	peers := make([]model.ProcID, 16)
	frames := make([][]byte, len(peers))
	for i := range peers {
		peers[i] = model.ProcID(10_000 - 613*i)
		frames[i] = sealed(peers[i], 1, 1, app)
	}
	sink := &benchSink{}
	build := func() {
		e := Wrap(sink, Options{Enabled: true})
		e.Init(ctx)
		for i, p := range peers {
			e.Context(ctx).Send(p, app)
			e.OnMessage(ctx, p, node.Payload{Tag: app.Tag, Data: frames[i]})
		}
		ctx.sends = ctx.sends[:0]
	}
	build() // size the fake context's send log
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 2000; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if sink.delivered != 2001*len(peers) {
		t.Fatalf("released %d frames, want %d", sink.delivered, 2001*len(peers))
	}
	per := (after.TotalAlloc - before.TotalAlloc) / 2000
	t.Logf("an endpoint that exchanged a frame with each of %d peers allocated %d B", len(peers), per)
	if bound := uint64(1024 * len(peers)); per >= bound {
		t.Errorf("an endpoint that exchanged a frame with each of %d peers allocated %d B, want < %d", len(peers), per, bound)
	}
}
