package byz

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error; "" means valid
	}{
		{"zero value", Options{}, ""},
		{"enabled defaults", Options{Enabled: true}, ""},
		{"explicit sane", Options{Enabled: true, EchoTags: []string{"SUSP", "APP"}}, ""},
		{"hold nothing", Options{Enabled: true, EchoTags: []string{}}, ""},
		{"empty echo tag", Options{EchoTags: []string{""}}, "empty tag"},
		{"echoing echoes", Options{EchoTags: []string{TagEcho}}, "recurse"},
		{"duplicate echo tag", Options{EchoTags: []string{"SUSP", "SUSP"}}, "duplicate tag"},
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

func TestWrapPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wrap accepted invalid options")
		}
	}()
	Wrap(sink{}, Options{EchoTags: []string{""}})
}

// sink is an inner handler that does nothing.
type sink struct{}

func (sink) Init(node.Context)                                  {}
func (sink) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (sink) OnTimer(node.Context, string)                       {}

// sealed returns p sealed into a buffer of its own.
func sealed(sender model.ProcID, seq, bid uint64, p node.Payload) []byte {
	body := make([]byte, headerLen+len(p.Data))
	sealBody(body, sender, seq, bid, p)
	return body
}

func TestSealOpenRoundTrip(t *testing.T) {
	p := node.Payload{Tag: "SUSP", Subject: 3, Data: []byte(`{"x":1}`)}
	body := sealed(2, 7, 4, p)
	if !Sealed(body) {
		t.Fatal("sealed body not recognized as sealed")
	}
	seq, bid, data, ok := openBody(2, p.Tag, p.Subject, body)
	if !ok {
		t.Fatal("authentic frame rejected")
	}
	if seq != 7 || bid != 4 || string(data) != `{"x":1}` {
		t.Errorf("openBody = (%d, %d, %q), want (7, 4, %q)", seq, bid, data, p.Data)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	p := node.Payload{Tag: "SUSP", Subject: 3, Data: []byte(`{"x":1}`)}
	body := sealed(2, 7, 4, p)
	cases := []struct {
		name    string
		sender  model.ProcID
		tag     string
		subject model.ProcID
		mutate  func([]byte) []byte
	}{
		{"flipped data byte", 2, "SUSP", 3, func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-1] ^= 0x01
			return out
		}},
		{"rotated subject", 2, "SUSP", 4, nil},
		{"changed tag", 2, "HB", 3, nil},
		{"claimed by another sender", 1, "SUSP", 3, nil},
		{"flipped seq", 2, "SUSP", 3, func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[8] ^= 0x01
			return out
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			b := body
			if tt.mutate != nil {
				b = tt.mutate(body)
			}
			if _, _, _, ok := openBody(tt.sender, tt.tag, tt.subject, b); ok {
				t.Error("tampered frame authenticated")
			}
		})
	}
}

// TestResealSignsTheLie: a resealed variant authenticates under the new
// subject — the equivocation primitive the MAC cannot catch.
func TestResealSignsTheLie(t *testing.T) {
	p := node.Payload{Tag: "SUSP", Subject: 3, Data: []byte(`{"x":1}`)}
	body := sealed(2, 7, 4, p)
	forged, ok := Reseal(body, 2, "SUSP", 4)
	if !ok {
		t.Fatal("Reseal rejected a sealed body")
	}
	if _, _, _, ok := openBody(2, "SUSP", 4, forged); !ok {
		t.Error("resealed variant failed authentication; the sender must be able to sign its own lies")
	}
	if _, _, _, ok := openBody(2, "SUSP", 3, forged); ok {
		t.Error("resealed variant still authenticates under the original subject")
	}
	if _, ok := Reseal([]byte("unsealed"), 2, "SUSP", 4); ok {
		t.Error("Reseal accepted unsealed data")
	}
}

// byzFakeCtx is a minimal host context for endpoint-level tests.
type byzFakeCtx struct {
	self  model.ProcID
	n     int
	sends []struct {
		to model.ProcID
		p  node.Payload
	}
}

func (c *byzFakeCtx) Self() model.ProcID { return c.self }
func (c *byzFakeCtx) N() int             { return c.n }
func (c *byzFakeCtx) Now() int64         { return 0 }
func (c *byzFakeCtx) Send(to model.ProcID, p node.Payload) {
	c.sends = append(c.sends, struct {
		to model.ProcID
		p  node.Payload
	}{to, p})
}
func (c *byzFakeCtx) SetTimer(string, int64)            {}
func (c *byzFakeCtx) CancelTimer(string)                {}
func (c *byzFakeCtx) EmitFailed(model.ProcID)           {}
func (c *byzFakeCtx) CrashSelf()                        {}
func (c *byzFakeCtx) EmitInternal(string, model.ProcID) {}

// TestSnapshotRestartRoundTrip: a durable restart restores the masked set
// and the counters, so the reincarnation neither trusts a convicted process
// nor reuses sequence numbers.
func TestSnapshotRestartRoundTrip(t *testing.T) {
	ctx := &byzFakeCtx{self: 1, n: 3}
	e := Wrap(sink{}, Options{Enabled: true})
	e.Init(ctx)
	// Spend some sequence numbers and broadcast ids.
	e.Context(ctx).Send(2, node.Payload{Tag: "APP", Data: []byte("a")})
	e.Context(ctx).Send(3, node.Payload{Tag: "APP", Data: []byte("a")})
	e.Context(ctx).Send(2, node.Payload{Tag: "APP", Data: []byte("b")})
	e.convictWith(ctx, 3, "bad-mac")

	snap := e.Snapshot()
	fresh := Wrap(sink{}, Options{Enabled: true})
	fresh.OnRestart(ctx, snap)
	if !fresh.Masked(3) {
		t.Error("restart forgot the masked set")
	}
	sent := len(ctx.sends)
	fresh.Context(ctx).Send(2, node.Payload{Tag: "APP", Data: []byte("c")})
	body := ctx.sends[sent].p.Data
	seq, bid, _, ok := openBody(1, "APP", model.None, body)
	if !ok {
		t.Fatal("restarted endpoint sent an unauthenticatable frame")
	}
	if seq != 3 {
		t.Errorf("post-restart seq to peer 2 = %d, want 3 (counters must not regress)", seq)
	}
	if bid != 3 {
		t.Errorf("post-restart bid = %d, want 3 (new content, counter restored at 2)", bid)
	}

	// Amnesia: nil state resets everything.
	amnesiac := Wrap(sink{}, Options{Enabled: true})
	amnesiac.OnRestart(ctx, nil)
	if amnesiac.Masked(3) {
		t.Error("amnesiac restart kept the masked set")
	}
}

// TestPumpIgnoresSettledRounds: rounds released with a single digest leave
// the worklist, so a timer at an endpoint that has settled 1,000 of them
// visits no round and allocates nothing; a late conflicting echo puts its
// round back, and the next pump convicts the origin.
func TestPumpIgnoresSettledRounds(t *testing.T) {
	ep, ctx := heldRounds(t, 1000, 2), benchCtx{self: 2}
	if len(ep.open) != 0 {
		t.Fatalf("worklist holds %d rounds after every round settled, want 0", len(ep.open))
	}
	if allocs := testing.AllocsPerRun(100, func() { ep.OnTimer(ctx, "tick") }); allocs != 0 {
		t.Errorf("OnTimer over settled rounds: %.1f allocations, want 0", allocs)
	}

	// Process 3 echoes a digest for (origin 1, bid 7) that differs from the
	// one this endpoint released.
	wire := &byzFakeCtx{self: 3, n: 5}
	witness := Wrap(sink{}, Options{Enabled: true})
	witness.Init(wire)
	echo := make([]byte, 16)
	echo[7], echo[15] = 7, 0xEE
	witness.Context(wire).Send(2, node.Payload{Tag: TagEcho, Subject: 1, Data: echo})
	ep.OnMessage(ctx, 3, wire.sends[0].p)
	if !ep.Masked(1) {
		t.Error("a conflicting echo for a settled round did not convict the origin")
	}
	if len(ep.open) != 0 {
		t.Errorf("worklist holds %d rounds after the conviction, want 0", len(ep.open))
	}
}

// echoFrom returns the sealed echo witness would send about (origin, bid)
// with the given digest byte — any peer can seal one naming any origin.
func echoFrom(witness model.ProcID, seq uint64, origin model.ProcID, bid, digest byte) node.Payload {
	body := make([]byte, 16)
	body[7], body[15] = bid, digest
	p := node.Payload{Tag: TagEcho, Subject: origin, Data: body}
	p.Data = sealed(witness, seq, seq, p)
	return p
}

// TestEchoNamingNoProcessIsDropped: an echo's Subject is whatever the witness
// wrote, so two conflicting echoes naming an origin outside 1..N must not
// reach the conviction path — a negative id would panic the masked bitset, a
// huge one would size it in gigabytes, and either would be fed to the
// detector as a suspect.
func TestEchoNamingNoProcessIsDropped(t *testing.T) {
	ctx := &byzFakeCtx{self: 2, n: 5}
	e := Wrap(sink{}, Options{Enabled: true})
	e.Init(ctx)
	e.SetConvict(func(_ node.Context, culprit model.ProcID) {
		t.Errorf("convicted %d on the word of one witness about no process", culprit)
	})
	seq := uint64(0)
	for _, origin := range []model.ProcID{-1, 0, 6, math.MaxInt32} {
		for _, digest := range []byte{0xAA, 0xBB} {
			seq++
			e.OnMessage(ctx, 3, echoFrom(3, seq, origin, 7, digest))
		}
		if e.Masked(origin) {
			t.Errorf("origin %d masked", origin)
		}
	}
	opened := 0
	for _, id := range e.heard.IDs(nil) {
		if e.heard.Get(id).rounds != nil {
			opened++
		}
	}
	if len(e.open) != 0 || opened != 0 {
		t.Errorf("%d open rounds and %d origins opened by echoes about no process, want none", len(e.open), opened)
	}
	if detected, _ := e.ByzStats(); detected != 0 {
		t.Errorf("%d convictions, want 0", detected)
	}

	// The same pair about a real origin still convicts it.
	e.SetConvict(nil)
	e.OnMessage(ctx, 3, echoFrom(3, seq+1, 1, 7, 0xAA))
	e.OnMessage(ctx, 3, echoFrom(3, seq+2, 1, 7, 0xBB))
	if !e.Masked(1) {
		t.Error("conflicting echoes about origin 1 did not convict it")
	}
}

// TestRestartDropsOutOfRangePeers: a snapshot is read back from storage, so
// process ids it names outside 1..N are dropped instead of trusted (a
// negative id would panic the masked bitset).
func TestRestartDropsOutOfRangePeers(t *testing.T) {
	ctx := &byzFakeCtx{self: 1, n: 3}
	e := Wrap(sink{}, Options{Enabled: true})
	e.OnRestart(ctx, []byte(`{"masked":[-3,2,9],"bid":4,"peers":[{"peer":-1,"next_seq":5},{"peer":3,"next_seq":6},{"peer":70000,"next_seq":7}]}`))
	if !e.Masked(2) || e.Masked(-3) || e.Masked(9) {
		t.Errorf("masked after restart: 2=%v -3=%v 9=%v, want only 2", e.Masked(2), e.Masked(-3), e.Masked(9))
	}
	if l := e.links.Get(3); e.links.Len() != 1 || l == nil || l.seq != 6 {
		t.Errorf("restored links to %v, want only peer 3 at 6", e.links.IDs(nil))
	}
	if got, want := string(e.Snapshot()), `{"masked":[2],"bid":4,"peers":[{"peer":3,"next_seq":6}]}`; got != want {
		t.Errorf("snapshot after restart = %s, want %s", got, want)
	}
}

// restoredSnapshot is what Snapshot must return right after OnRestart(state)
// in an n-process system: the stored masked set and links read into Go maps
// — so the last entry for a peer wins — keeping ids in 1..n, and listed once
// each in id order.
func restoredSnapshot(n int, state []byte) string {
	var snap endpointSnapshot
	if len(state) == 0 || json.Unmarshal(state, &snap) != nil {
		return "{}"
	}
	masked, seq := map[model.ProcID]bool{}, map[model.ProcID]uint64{}
	for _, p := range snap.Masked {
		masked[p] = true
	}
	for _, ps := range snap.Peers {
		seq[ps.Peer] = ps.NextSeq
	}
	out := endpointSnapshot{Bid: snap.Bid}
	for id := model.ProcID(1); int(id) <= n; id++ {
		if masked[id] {
			out.Masked = append(out.Masked, id)
		}
		if s, ok := seq[id]; ok {
			out.Peers = append(out.Peers, peerSeqSnapshot{Peer: id, NextSeq: s})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// FuzzByzOnRestart: whatever bytes storage hands back, OnRestart must not
// panic, must keep one sequence counter per peer — the snapshot's last entry
// for it — so that Snapshot then lists each peer once, in id order, and the
// endpoint must still seal what it sends and release what an unmasked peer
// sends it.
func FuzzByzOnRestart(f *testing.F) {
	f.Add([]byte(`{"masked":[2],"bid":4,"peers":[{"peer":3,"next_seq":6}],"inner":"AQI="}`))
	f.Add([]byte(`{"masked":[-3,2,9],"bid":4,"peers":[{"peer":-1,"next_seq":5},{"peer":70000,"next_seq":7}]}`))
	f.Add([]byte(`{"masked":[-9223372036854775808],"bid":18446744073709551615,"peers":[{"peer":2,"next_seq":18446744073709551615}]}`))
	f.Add([]byte(`{"masked":"all"}`))
	f.Add([]byte(nil))
	// Peer 3 named twice around peer 2, and 2 masked twice: one counter per
	// peer, the last one stored.
	f.Add([]byte(`{"masked":[3,2,3],"bid":9,"peers":[{"peer":3,"next_seq":8},{"peer":2,"next_seq":1},{"peer":3,"next_seq":5}]}`))
	f.Add([]byte(`{"bid":2,"peers":[{"peer":2,"next_seq":4},{"peer":3,"next_seq":6},{"peer":2,"next_seq":0}]}`))
	f.Fuzz(func(t *testing.T, state []byte) {
		ctx := &byzFakeCtx{self: 1, n: 3}
		inner := &benchSink{}
		e := Wrap(inner, Options{Enabled: true})
		e.OnRestart(ctx, state)
		if got, want := string(e.Snapshot()), restoredSnapshot(ctx.n, state); got != want {
			t.Fatalf("snapshot after restart = %s, want %s", got, want)
		}
		app := node.Payload{Tag: "APP", Data: []byte("after")}
		e.Context(ctx).Send(2, app)
		if len(ctx.sends) != 1 {
			t.Fatal("restarted endpoint did not send")
		}
		if _, _, _, ok := openBody(1, "APP", model.None, ctx.sends[0].p.Data); !ok {
			t.Fatal("restarted endpoint sent an unauthenticatable frame")
		}
		for _, from := range []model.ProcID{2, 3} {
			if e.Masked(from) {
				continue
			}
			before := inner.delivered
			e.OnMessage(ctx, from, node.Payload{Tag: "APP", Data: sealed(from, 1, 1, app)})
			// Not SUSP: at n = 3 a held frame waits for the third process's echo.
			e.OnMessage(ctx, from, node.Payload{Tag: "DATA", Subject: 3, Data: sealed(from, 2, 2, node.Payload{Tag: "DATA", Subject: 3})})
			if inner.delivered != before+2 {
				t.Fatalf("restarted endpoint released %d of 2 frames from %d", inner.delivered-before, from)
			}
		}
	})
}

// FuzzByzOnMessage: whatever a peer seals — keys are public, so every field
// of an authentic frame is the sender's to choose — OnMessage must not panic,
// and only processes can end up convicted. Each input is delivered twice with
// the last data byte flipped, so echo inputs arrive as conflicting pairs.
func FuzzByzOnMessage(f *testing.F) {
	echo := make([]byte, 16)
	echo[7], echo[15] = 7, 0xAA
	f.Add(TagEcho, int64(-1), uint64(1), uint64(1), echo)
	f.Add(TagEcho, int64(math.MaxInt32), uint64(1), uint64(1), echo)
	f.Add(TagEcho, int64(1), uint64(1), uint64(1), echo)
	f.Add("SUSP", int64(-7), uint64(3), uint64(1<<63), []byte(nil))
	f.Add("APP", int64(0), uint64(0), uint64(0), []byte("x"))
	f.Fuzz(func(t *testing.T, tag string, subject int64, seq, bid uint64, data []byte) {
		if subject != int64(model.ProcID(subject)) {
			t.Skip("no model.ProcID holds the subject")
		}
		ctx := &byzFakeCtx{self: 2, n: 4} // a witness threshold of two
		e := Wrap(sink{}, Options{Enabled: true})
		e.Init(ctx)
		e.SetConvict(func(_ node.Context, culprit model.ProcID) {
			if culprit < 1 || int(culprit) > ctx.n {
				t.Errorf("convicted %d, which is no process", culprit)
			}
		})
		p := node.Payload{Tag: tag, Subject: model.ProcID(subject), Data: data}
		e.OnMessage(ctx, 3, node.Payload{Tag: tag, Subject: p.Subject, Data: sealed(3, seq, bid, p)})
		if len(data) > 0 {
			p.Data = append([]byte(nil), data...)
			p.Data[len(data)-1] ^= 1
		}
		e.OnMessage(ctx, 4, node.Payload{Tag: tag, Subject: p.Subject, Data: sealed(4, seq+1, bid, p)})
		e.OnTimer(ctx, "tick")
	})
}

// FuzzByzOpenBody: openBody never panics on bytes off the wire, whatever
// sender, tag and subject they claim; what it accepts is a sealed header whose
// fields it returns as they stand; and a body sealBody built for any (sender,
// seq, bid, tag, subject, data) opens to exactly those fields.
func FuzzByzOpenBody(f *testing.F) {
	authentic := sealed(2, 7, 4, node.Payload{Tag: "SUSP", Subject: 3, Data: []byte(`{"x":1}`)})
	short := make([]byte, headerLen-1)
	short[0] = kindSealed
	wrongKind := append([]byte(nil), authentic...)
	wrongKind[0] = '{'
	f.Add(int64(2), "SUSP", int64(3), uint64(7), uint64(4), []byte(`{"x":1}`), []byte(nil))
	f.Add(int64(2), "SUSP", int64(3), uint64(7), uint64(4), []byte(`{"x":1}`), short)
	f.Add(int64(2), "SUSP", int64(3), uint64(7), uint64(4), []byte(`{"x":1}`), wrongKind)
	f.Add(int64(2), "SUSP", int64(3), uint64(7), uint64(4), []byte(`{"x":1}`), authentic)
	f.Fuzz(func(t *testing.T, sender int64, tag string, subject int64, seq, bid uint64, data, body []byte) {
		from, about := model.ProcID(sender), model.ProcID(subject)
		if int64(from) != sender || int64(about) != subject {
			t.Skip("no model.ProcID holds the sender or the subject")
		}
		if gotSeq, gotBid, got, ok := openBody(from, tag, about, body); ok {
			if !Sealed(body) || gotSeq != binary.BigEndian.Uint64(body[1:9]) ||
				gotBid != binary.BigEndian.Uint64(body[9:17]) || !bytes.Equal(got, body[headerLen:]) {
				t.Fatalf("openBody accepted %x as (%d, %d, %x)", body, gotSeq, gotBid, got)
			}
		}
		frame := sealed(from, seq, bid, node.Payload{Tag: tag, Subject: about, Data: data})
		gotSeq, gotBid, got, ok := openBody(from, tag, about, frame)
		if !ok || gotSeq != seq || gotBid != bid || !bytes.Equal(got, data) {
			t.Fatalf("sealed (%d, %d, %x) opened to (%d, %d, %x, %v)", seq, bid, data, gotSeq, gotBid, got, ok)
		}
	})
}
