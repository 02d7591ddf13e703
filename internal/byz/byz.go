// Package byz is an optional Byzantine-fault validation layer between a
// protocol handler and its host: per-sender frame authentication, echo
// quorums that cross-check broadcast consistency, and a replay watermark.
// On detecting misbehavior — a bad MAC, equivocating payloads for one
// broadcast, or a stale replayed frame — an Endpoint masks the faulty
// process into a crash: it discards the culprit's traffic locally and
// feeds the suspicion into the fail-stop detector, whose own-SUSP rule
// ("when x receives 'x failed', x executes crash_x") then demotes the
// Byzantine process to exactly the crash failure the paper's model
// simulates. This is the Imbs–Raynal–Stainer reduction from Byzantine to
// crash failures, realized as an interposer under the §5 protocol.
//
// Layering. An Endpoint wraps a node.Handler and is itself a node.Handler,
// exactly like internal/reliable — and when both layers run, the reliable
// endpoint is the outer one: reliable retransmission then resends the
// already-sealed frame byte for byte, so retransmits carry the original
// sequence number, broadcast id, and MAC, and echo quorums accumulate
// across retries instead of seeing each retry as a fresh frame. The fault
// plane reaches the sealed body through reliable.WireBody when it must
// mutate or reseal a framed payload.
//
// Authentication. Every send the inner handler issues is sealed: a 25-byte
// header (kind, per-link sequence number, per-sender broadcast id, MAC)
// prepended to the payload data, with the outer Tag and Subject preserved
// so tag-targeted fault rules and trace tooling still see the protocol
// message. The MAC is a deterministic splitmix64 fold keyed per sender;
// keys are public and derivable — the layer models integrity (a third
// party cannot alter a frame undetected), not secrecy. In particular a
// Byzantine sender can sign its own lies, which is exactly why
// equivocation cannot be caught by the MAC alone and needs the echo
// quorum below.
//
// Broadcast ids and witness-hold. Consecutive sends with identical
// (tag, subject, data) share one broadcast id — a broadcast loop seals n-1
// frames under a single bid. Frames whose tag is in Options.EchoTags
// (by default the detector's "SUSP" class, whose forgery is what breaks
// fail-stop safety) are not released on arrival: the receiver holds the
// frame, broadcasts a sealed echo naming (origin, bid, content digest) to
// every other process, and releases the held frame only once a majority of
// the n-1 potential receivers, (n-1)/2+1 distinct processes — itself
// included — have vouched for the digest it saw. Two conflicting digests for
// one (origin, bid) convict the origin of equivocation. With that threshold,
// an equivocation split in which no variant reaches a majority of the
// receivers is convicted deterministically, before any variant can be
// released; a variant that does reach a live majority is released
// consistently everywhere — indistinguishable from an erroneous-but-
// consistent suspicion, which the §5 protocol already tolerates by design.
//
// Replay. Receivers remember each sender's delivered sequence numbers. A
// frame re-arriving within ReplayHorizon ticks of its first
// delivery is a benign network duplicate and is discarded silently; beyond
// the horizon it is a replay attack and convicts the sender. (Under the
// reliable layer, receiver-side dedup retires duplicates before this
// check — replay conviction is the bare-network defense.)
//
// Limitations, by design: a lying witness — a process whose echoes
// themselves are forged — can frame an honest origin, since conviction
// trusts digest conflicts; the fault plane's rule grammar only mutates the
// victim's own traffic, so the scenarios this package ships with never
// exercise that. Echoes from masked processes still count as testimony:
// an echo can only corroborate a digest the receiver computed itself or
// create a conflict that convicts the origin, and counting it keeps
// witness quorums live when masked processes sit among the receivers.
// Restarting a process with amnesia (internal/recovery) resets its
// sequence counters, so its reused sequence numbers look like stale
// replays to peers that remember the first incarnation — persist the
// counters (durable recovery) to restart cleanly. Held frames and echo
// records are transient and die with a crash, like the reliable layer's
// pending acks.
//
// Data layout. Per-peer state lives in two node.Tables keyed by the peer's
// id, each record made on first use: links holds what this endpoint sends to
// a destination (its sequence counter and arena), heard what it has had
// from a sender or about an origin (the sequence numbers seen and the
// witness rounds by broadcast id). A full mesh's peers sit in their home
// slots, so a frame finds its sender's record without hashing; the inner
// maps stay maps, because their keys are sequence numbers and broadcast ids
// a Byzantine sender chooses. Whether a tag is held is a scan of
// Options.EchoTags, a list of one by default. pump never walks the rounds:
// it walks a worklist of the open rounds only, kept sorted by (origin, bid)
// — the order, and the repeat-until-a-pass-changes-nothing rule, that a scan
// of every round in sorted order would follow. A round is open until it has
// been released with a single vouched digest; it goes back on the list if a
// later echo vouches for a second digest (so the equivocation is still
// convicted), and a conviction takes the culprit's rounds off it. Settled
// rounds therefore cost a timer or an echo nothing. A round's vouchers are a
// short slice of (digest, quorum.Set) pairs and the masked set is a
// quorum.Set. Sealed bodies are carved from one node.Arena per destination
// rather than allocated per frame; the arena only bumps forward, because the
// host (and the reliable layer's unacked queue) may keep a sent body for as
// long as it likes — and it is the destination's, not the endpoint's, so
// bodies that are never let go of (unacked to a crashed peer) pin that
// link's chunks and no other's. The inner handler sees one context wrapper
// per endpoint, rebound to the host's context at every callback entry —
// node.Context limits a context to the callback that received it, and hosts
// serialize a process's callbacks.
package byz

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/quorum"
)

// TagEcho marks witness echoes: sealed frames whose Subject names the
// origin whose broadcast is being vouched for, and whose data carries the
// (broadcast id, digest) pair. Echoes are never themselves held.
const TagEcho = "BYZ.ECHO"

// ReplayHorizon is the replay watermark in ticks: a sequence number seen
// again within the horizon is a network duplicate, beyond it a replay
// attack. Comfortably above any plausible duplicate's extra delay under the
// default fault plans.
const ReplayHorizon = 100

// Wire layout: a 25-byte header followed by the original payload bytes.
// kindSealed is distinct from the reliable layer's frame kinds (1, 2) and
// from '{' (0x7B), the first byte of every JSON payload in the module, so
// unsealed traffic is never misparsed as a frame.
const (
	kindSealed byte = 0xB1
	headerLen       = 25 // kind(1) + seq(8) + bid(8) + mac(8)
)

// Options configures the validation layer.
type Options struct {
	// Enabled turns the layer on. The zero Options leave traffic unsealed.
	Enabled bool
	// EchoTags lists the payload tags whose frames are held for witness
	// quorums before release (the broadcast classes whose forgery matters).
	// nil means the detector's "SUSP" class; an explicit empty slice holds
	// nothing (authentication and replay checks still apply).
	EchoTags []string
}

func (o Options) withDefaults() Options {
	if o.EchoTags == nil {
		// The detector's TagSusp, kept literal so the layer stays
		// protocol-agnostic (no import of internal/core).
		o.EchoTags = []string{"SUSP"}
	}
	return o
}

// Validate reports the first problem with the options, or nil.
func (o Options) Validate() error {
	seen := map[string]bool{}
	for _, tag := range o.EchoTags {
		if tag == "" {
			return fmt.Errorf("byz: empty tag in EchoTags")
		}
		if tag == TagEcho {
			return fmt.Errorf("byz: EchoTags must not contain %q: echoing echoes would recurse", TagEcho)
		}
		if seen[tag] {
			return fmt.Errorf("byz: duplicate tag %q in EchoTags", tag)
		}
		seen[tag] = true
	}
	return nil
}

// voucher is one digest vouched for in a round, and by whom (self included).
type voucher struct {
	digest uint64
	by     quorum.Set
}

// round is the witness state of one (origin, broadcast id): which digests
// have been vouched for by whom, and the frames held pending release.
type round struct {
	origin   model.ProcID
	bid      uint64
	digests  []voucher
	held     []node.Payload // unsealed frames, arrival order
	myDigest uint64
	haveMine bool // we received the frame itself (not just echoes)
	echoed   bool // our echo broadcast went out
	released bool
	open     bool // on the worklist: unreleased, or vouched for two digests
}

// vouched returns the round's record for digest, or nil if nobody has
// vouched for it.
func (r *round) vouched(digest uint64) *voucher {
	for i := range r.digests {
		if r.digests[i].digest == digest {
			return &r.digests[i]
		}
	}
	return nil
}

// link is the sender-side state of one destination, materialized on the
// first send to it.
type link struct {
	seq   uint64     // last sequence number sent
	arena node.Arena // sealed bodies sent
}

// inbound is the receiver-side state of one peer, materialized on the first
// frame from it or echo about it.
type inbound struct {
	seen   map[uint64]int64  // seq -> first arrival of each frame it sent
	rounds map[uint64]*round // bid -> witness round of each broadcast it originated
}

// Endpoint wraps a node.Handler with the validation layer on every link it
// speaks. It implements node.Handler, node.Gate, node.CrashListener, and
// node.Restarter; hosts treat it exactly like the handler it wraps.
//
// All mutable state is touched only inside host callbacks, which hosts
// serialize per process; the counters are atomic so live-backend stats can
// be read concurrently.
type Endpoint struct {
	inner node.Handler
	opts  Options
	spans *obs.SpanRecorder
	// convict is invoked once per conviction with the wrapped context, so
	// the suspicion it feeds into the detector broadcasts through this
	// layer's sealing (and the reliable layer above, when enabled).
	convict func(ctx node.Context, culprit model.ProcID)

	witnesses int

	// Sender side: per-destination links and the broadcast-id
	// content-equality state.
	links       node.Table[link]
	bid         uint64
	lastTag     string
	lastSubject model.ProcID
	lastData    []byte
	haveLast    bool

	// Receiver side.
	heard  node.Table[inbound] // per sender, or origin of witness rounds
	masked quorum.Set
	// open is pump's worklist: the open rounds in (origin, bid) order. A
	// round that settles or is convicted is only marked (round.open) and
	// the list is marked stale; pump sweeps it at the end of a pass.
	open  []*round
	stale bool

	ctx  byzCtx   // the one context the inner handler sees
	echo [16]byte // hold's scratch: the echo body being sealed

	detected    obs.Counter // convictions
	maskedCount obs.Counter // frames discarded from masked senders
}

var (
	_ node.Handler       = (*Endpoint)(nil)
	_ node.Gate          = (*Endpoint)(nil)
	_ node.CrashListener = (*Endpoint)(nil)
	_ node.Restarter     = (*Endpoint)(nil)
)

// Wrap builds an Endpoint around inner. It panics on invalid options —
// configurations are authored, not computed.
func Wrap(inner node.Handler, opts Options) *Endpoint {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	e := &Endpoint{inner: inner, opts: opts.withDefaults()}
	e.ctx.e = e
	return e
}

// Inner returns the wrapped handler.
func (e *Endpoint) Inner() node.Handler { return e.inner }

// ByzStats returns the layer's counters: misbehavior convictions and
// frames discarded because their sender was masked. Hosts discover this
// method structurally to surface the counters in their stats.
func (e *Endpoint) ByzStats() (detected, masked int) {
	return int(e.detected.Value()), int(e.maskedCount.Value())
}

// Masked reports whether this endpoint has convicted and masked p.
func (e *Endpoint) Masked(p model.ProcID) bool { return e.masked.Has(p) }

// SetSpans attaches a span recorder: every conviction records a
// SpanByzDetect span (detection-grade, never sampled out). Call before the
// host starts delivering.
func (e *Endpoint) SetSpans(rec *obs.SpanRecorder) { e.spans = rec }

// SetConvict installs the masking sink: called once per conviction with
// the wrapped context and the culprit, it is where the cluster feeds the
// suspicion into the fail-stop detector (Detector.Suspect), completing the
// Byzantine-to-crash demotion. Call before the host starts delivering.
func (e *Endpoint) SetConvict(fn func(ctx node.Context, culprit model.ProcID)) { e.convict = fn }

// Context wraps a host context so that Send flows through the sealing
// layer. Injected actions (SuspectAt and friends) must wrap the context
// they are handed, or their sends would go out unsealed. The wrapper is the
// endpoint's one context, rebound to host: like every node.Context it is
// good for the current callback only.
func (e *Endpoint) Context(host node.Context) node.Context {
	e.ctx.Context = host
	return &e.ctx
}

// byzCtx is the context the inner handler sees: everything forwards to the
// host except Send.
type byzCtx struct {
	node.Context
	e *Endpoint
}

func (c *byzCtx) Send(to model.ProcID, p node.Payload) {
	c.e.send(c.Context, to, p)
}

// resolve fixes the witness threshold once the system size is known.
func (e *Endpoint) resolve(ctx node.Context) {
	if e.witnesses == 0 {
		e.witnesses = (ctx.N()-1)/2 + 1
	}
}

// Init implements node.Handler.
func (e *Endpoint) Init(ctx node.Context) {
	e.resolve(ctx)
	e.inner.Init(e.Context(ctx))
}

// OnCrash implements node.CrashListener.
func (e *Endpoint) OnCrash(ctx node.Context) {
	if l, ok := e.inner.(node.CrashListener); ok {
		l.OnCrash(e.Context(ctx))
	}
}

// send seals and transmits one payload from the inner handler, assigning
// the per-link sequence number and the content-equality broadcast id.
func (e *Endpoint) send(host node.Context, to model.ProcID, p node.Payload) {
	if !e.haveLast || p.Tag != e.lastTag || p.Subject != e.lastSubject || !bytes.Equal(p.Data, e.lastData) {
		e.bid++
		e.haveLast = true
		e.lastTag = p.Tag
		e.lastSubject = p.Subject
		e.lastData = append(e.lastData[:0], p.Data...)
	}
	l, _ := e.links.Add(to)
	l.seq++
	body := l.arena.Alloc(headerLen + len(p.Data))
	sealBody(body, host.Self(), l.seq, e.bid, p)
	host.Send(to, node.Payload{Tag: p.Tag, Subject: p.Subject, Data: body})
}

// OnTimer implements node.Handler: the layer owns no timers; everything
// forwards to the inner handler, then held frames whose gates may have
// opened are re-pumped.
func (e *Endpoint) OnTimer(ctx node.Context, name string) {
	e.inner.OnTimer(e.Context(ctx), name)
	e.pump(ctx)
}

// OnMessage implements node.Handler: sealed frames are authenticated,
// replay-checked, and either held for their witness quorum or released to
// the inner handler; echoes feed the witness records; unsealed traffic (a
// sender without the layer) passes through untouched.
func (e *Endpoint) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	if !Sealed(p.Data) {
		e.inner.OnMessage(e.Context(ctx), from, p)
		return
	}
	seq, bid, data, ok := openBody(from, p.Tag, p.Subject, p.Data)
	if !ok {
		e.convictWith(ctx, from, "bad-mac")
		return
	}
	isEcho := p.Tag == TagEcho
	if e.masked.Has(from) && !isEcho {
		// Masked senders' protocol traffic is dead; their echoes below are
		// still counted as testimony (see the package comment).
		e.maskedCount.Add(1)
		return
	}
	in, _ := e.heard.Add(from)
	if in.seen == nil {
		in.seen = make(map[uint64]int64)
	}
	now := ctx.Now()
	if first, dup := in.seen[seq]; dup {
		if now-first > ReplayHorizon {
			e.convictWith(ctx, from, "replay")
		}
		// Within the horizon: a benign network duplicate.
		return
	}
	in.seen[seq] = now
	if isEcho {
		e.onEcho(ctx, from, p.Subject, data)
		return
	}
	inner := node.Payload{Tag: p.Tag, Subject: p.Subject, Data: data}
	if !slices.Contains(e.opts.EchoTags, p.Tag) {
		e.inner.OnMessage(e.Context(ctx), from, inner)
		return
	}
	e.hold(ctx, from, bid, inner)
	e.pump(ctx)
}

// hold files a received held-class frame into its (origin, bid) round,
// vouching for its digest and broadcasting the echo on first receipt.
func (e *Endpoint) hold(ctx node.Context, origin model.ProcID, bid uint64, p node.Payload) {
	r := e.round(origin, bid)
	if r.released {
		// The quorum already released this broadcast; a late extra frame
		// under the same bid adds nothing.
		return
	}
	d := digestOf(p.Tag, p.Subject, p.Data)
	r.held = append(r.held, p)
	r.myDigest = d
	r.haveMine = true
	e.vouch(r, d, ctx.Self())
	if !r.echoed {
		r.echoed = true
		data := e.echo[:] // send copies it into each sealed body
		binary.BigEndian.PutUint64(data[0:8], bid)
		binary.BigEndian.PutUint64(data[8:16], d)
		for q := model.ProcID(1); int(q) <= ctx.N(); q++ {
			if q == ctx.Self() || q == origin {
				continue
			}
			e.send(ctx, q, node.Payload{Tag: TagEcho, Subject: origin, Data: data})
		}
	}
}

// onEcho records one witness's testimony about (origin, bid). The origin is
// the echo's Subject, which the witness chose: one naming no process is
// dropped, so a lying witness cannot open rounds for — or convict, and feed
// the detector — an id outside 1..N.
func (e *Endpoint) onEcho(ctx node.Context, witness, origin model.ProcID, data []byte) {
	if len(data) != 16 || origin < 1 || int(origin) > ctx.N() || e.masked.Has(origin) {
		return
	}
	bid := binary.BigEndian.Uint64(data[0:8])
	d := binary.BigEndian.Uint64(data[8:16])
	e.vouch(e.round(origin, bid), d, witness)
	e.pump(ctx)
}

func (e *Endpoint) round(origin model.ProcID, bid uint64) *round {
	in, _ := e.heard.Add(origin)
	if in.rounds == nil {
		in.rounds = make(map[uint64]*round)
	}
	r := in.rounds[bid]
	if r == nil {
		r = &round{origin: origin, bid: bid}
		in.rounds[bid] = r
		e.enlist(r)
	}
	return r
}

// enlist puts r on the worklist at its (origin, bid) position.
func (e *Endpoint) enlist(r *round) {
	r.open = true
	i, _ := slices.BinarySearchFunc(e.open, r, func(o, r *round) int {
		return cmp.Or(cmp.Compare(o.origin, r.origin), cmp.Compare(o.bid, r.bid))
	})
	e.open = slices.Insert(e.open, i, r)
}

func (e *Endpoint) vouch(r *round, digest uint64, by model.ProcID) {
	if v := r.vouched(digest); v != nil {
		v.by.Add(by)
		return
	}
	r.digests = append(r.digests, voucher{digest: digest, by: quorum.SetOf(by)})
	if !r.open {
		// A second digest for a round that had settled: pump must see it
		// again to convict the origin.
		e.enlist(r)
	}
}

// pump re-evaluates every open round in (origin, bid) order: conflicting
// digests convict the origin of equivocation; a round whose own digest has
// reached the witness threshold releases its held frames to the inner
// handler (through the inner gate, so the §5 receive deferral keeps
// working). Releasing or convicting can change what later rounds see, so
// the scan repeats until a full pass changes nothing. Nothing pump calls
// adds a round, so the list only changes by the marks swept here.
func (e *Endpoint) pump(ctx node.Context) {
	gate, _ := e.inner.(node.Gate)
	for again := true; again; {
		again = false
		for _, r := range e.open {
			if !r.open {
				continue // settled or convicted earlier in this pass
			}
			if len(r.digests) > 1 {
				// Two vouched digests for one broadcast: equivocation.
				e.convictWith(ctx, r.origin, "equivocation")
				again = true
				continue
			}
			if !r.haveMine || r.vouched(r.myDigest).by.Len() < e.witnesses {
				continue
			}
			if gate != nil && len(r.held) > 0 && !gate.Accepts(r.origin, r.held[0]) {
				continue // retry on the next pump
			}
			r.released = true
			r.open, e.stale = false, true
			held := r.held
			r.held = nil
			for _, p := range held {
				e.inner.OnMessage(e.Context(ctx), r.origin, p)
			}
			again = true
		}
		if e.stale {
			e.stale = false
			e.open = slices.DeleteFunc(e.open, func(r *round) bool { return !r.open })
		}
	}
}

// convictWith masks the culprit: its traffic is discarded from here on,
// its held frames are dropped, the conviction is counted and traced, and
// the suspicion is fed to the masking sink (the fail-stop detector).
func (e *Endpoint) convictWith(ctx node.Context, culprit model.ProcID, reason string) {
	if e.masked.Has(culprit) {
		return
	}
	e.masked.Add(culprit)
	e.detected.Add(1)
	// Held frames sit in unreleased rounds only, and those are all open.
	for _, r := range e.open {
		if r.origin == culprit && r.open {
			e.maskedCount.Add(int64(len(r.held)))
			r.open, e.stale = false, true
		}
	}
	if in := e.heard.Get(culprit); in != nil {
		in.rounds = nil
	}
	if e.spans != nil {
		e.spans.Record(obs.Span{
			Time: ctx.Now(), Kind: obs.SpanByzDetect,
			Proc: ctx.Self(), Peer: culprit, Note: reason,
		})
	}
	if e.convict != nil {
		e.convict(e.Context(ctx), culprit)
	}
}

// Accepts implements node.Gate. Frames the Endpoint consumes itself
// (echoes, bad MACs, masked senders' traffic, duplicates, held classes)
// are always accepted; a sealed frame that would be released to the inner
// handler right now is subject to the inner gate on its unsealed form, so
// the §5 sFS2d receive deferral keeps working through the layer. Accepts
// must not mutate state: hosts call it speculatively.
func (e *Endpoint) Accepts(from model.ProcID, p node.Payload) bool {
	if !Sealed(p.Data) {
		if g, ok := e.inner.(node.Gate); ok {
			return g.Accepts(from, p)
		}
		return true
	}
	seq, _, data, ok := openBody(from, p.Tag, p.Subject, p.Data)
	if !ok || p.Tag == TagEcho || e.masked.Has(from) || slices.Contains(e.opts.EchoTags, p.Tag) {
		return true
	}
	if in := e.heard.Get(from); in != nil {
		if _, dup := in.seen[seq]; dup {
			return true // duplicate or replay: consumed internally
		}
	}
	if g, ok := e.inner.(node.Gate); ok {
		return g.Accepts(from, node.Payload{Tag: p.Tag, Subject: p.Subject, Data: data})
	}
	return true
}

// endpointSnapshot is the durable-state wire form of an Endpoint
// (internal/recovery): the masked set, the broadcast-id counter, and the
// per-link sequence counters, sorted so equal states encode
// byte-identically, plus the wrapped handler's own snapshot. Held frames,
// witness records, and the receive watermark are transient — in-flight
// evidence a crash loses, like the reliable layer's pending frames.
//
//sfs:wire
type endpointSnapshot struct {
	Masked []model.ProcID    `json:"masked,omitempty"`
	Bid    uint64            `json:"bid,omitempty"`
	Peers  []peerSeqSnapshot `json:"peers,omitempty"`
	Inner  []byte            `json:"inner,omitempty"`
}

// peerSeqSnapshot is one outgoing link's sequence counter.
//
//sfs:wire
type peerSeqSnapshot struct {
	Peer    model.ProcID `json:"peer"`
	NextSeq uint64       `json:"next_seq"`
}

// Snapshot implements node.Restarter: it encodes the state a restart must
// not regress — reusing sequence numbers or broadcast ids would make the
// restarted process's fresh frames look like replays (or collide its new
// broadcasts with remembered ones) at every peer. It does not mutate the
// endpoint.
func (e *Endpoint) Snapshot() []byte {
	snap := endpointSnapshot{Bid: e.bid, Masked: e.masked.Members()}
	for _, id := range e.links.IDs(nil) {
		snap.Peers = append(snap.Peers, peerSeqSnapshot{Peer: id, NextSeq: e.links.Get(id).seq})
	}
	if r, ok := e.inner.(node.Restarter); ok {
		snap.Inner = r.Snapshot()
	}
	b, err := json.Marshal(snap)
	if err != nil {
		panic(fmt.Sprintf("byz: encoding endpoint snapshot: %v", err))
	}
	return b
}

// OnRestart implements node.Restarter. A durable restart restores the
// masked set and the counters, so the reincarnation neither trusts a
// process it already convicted nor reuses sequence numbers its peers
// remember. A nil or undecodable state (amnesia) resets everything — and
// an amnesiac restart therefore reuses spent sequence numbers, which peers
// that remember the first incarnation convict as replays: the byz-layer
// echo of the reliable layer's amnesia argument (experiment E15). The bytes
// were read back from storage, so process ids outside 1..N are dropped
// rather than trusted; a peer the snapshot names twice gets its last entry.
func (e *Endpoint) OnRestart(ctx node.Context, state []byte) {
	e.witnesses = 0
	e.resolve(ctx)
	e.links = node.Table[link]{}
	e.bid = 0
	e.haveLast = false
	e.lastTag = ""
	e.lastSubject = model.None
	e.lastData = nil
	e.heard = node.Table[inbound]{}
	e.masked = nil
	e.open, e.stale = nil, false
	var innerState []byte
	if len(state) > 0 {
		var snap endpointSnapshot
		if err := json.Unmarshal(state, &snap); err == nil {
			e.bid = snap.Bid
			inRange := func(p model.ProcID) bool { return p >= 1 && int(p) <= ctx.N() }
			for _, p := range snap.Masked {
				if inRange(p) {
					e.masked.Add(p)
				}
			}
			for _, ps := range snap.Peers {
				if inRange(ps.Peer) {
					l, _ := e.links.Add(ps.Peer)
					*l = link{seq: ps.NextSeq}
				}
			}
			innerState = snap.Inner
		}
	}
	if r, ok := e.inner.(node.Restarter); ok {
		r.OnRestart(e.Context(ctx), innerState)
	} else {
		e.inner.Init(e.Context(ctx))
	}
}

// Sealed reports whether data carries this layer's frame header.
func Sealed(data []byte) bool {
	return len(data) >= headerLen && data[0] == kindSealed
}

// Reseal recomputes a sealed body's MAC for a changed outer (tag, subject),
// keeping its sequence number, broadcast id, and inner data. This is the
// fault plane's equivocation primitive: a Byzantine sender signs its own
// lies (keys are public — see the package comment), so the forged variant
// authenticates and only the echo quorum can catch the split. ok is false
// when data is not a sealed body.
func Reseal(data []byte, sender model.ProcID, tag string, subject model.ProcID) ([]byte, bool) {
	if !Sealed(data) {
		return nil, false
	}
	out := append([]byte(nil), data...)
	seq := binary.BigEndian.Uint64(out[1:9])
	bid := binary.BigEndian.Uint64(out[9:17])
	binary.BigEndian.PutUint64(out[17:25], macOf(sender, seq, bid, tag, subject, out[headerLen:]))
	return out, true
}

// sealBody frames p's data under the sender's MAC into body, which must be
// headerLen+len(p.Data) bytes long.
func sealBody(body []byte, sender model.ProcID, seq, bid uint64, p node.Payload) {
	body[0] = kindSealed
	binary.BigEndian.PutUint64(body[1:9], seq)
	binary.BigEndian.PutUint64(body[9:17], bid)
	binary.BigEndian.PutUint64(body[17:25], macOf(sender, seq, bid, p.Tag, p.Subject, p.Data))
	copy(body[headerLen:], p.Data)
}

// openBody authenticates a sealed body against the claimed sender and the
// outer (tag, subject), returning the header fields and the inner payload
// bytes. ok is false for a body whose MAC does not verify.
func openBody(sender model.ProcID, tag string, subject model.ProcID, body []byte) (seq, bid uint64, data []byte, ok bool) {
	if !Sealed(body) {
		return 0, 0, nil, false
	}
	seq = binary.BigEndian.Uint64(body[1:9])
	bid = binary.BigEndian.Uint64(body[9:17])
	mac := binary.BigEndian.Uint64(body[17:25])
	data = body[headerLen:]
	if len(data) == 0 {
		data = nil
	}
	if mac != macOf(sender, seq, bid, tag, subject, data) {
		return 0, 0, nil, false
	}
	return seq, bid, data, true
}

// keySalt separates the key schedule from every other splitmix64 stream in
// the module.
const keySalt = 0x5b7a9e24c16f03d8

// keyFor derives sender p's MAC key. Keys are deterministic and public:
// the layer models integrity against third-party tampering, not secrecy.
func keyFor(p model.ProcID) uint64 {
	return model.Mix(keySalt ^ uint64(p)*0x9e3779b97f4a7c15)
}

// macOf authenticates one frame: a splitmix64 fold over the sender's key,
// the header fields, and the outer payload identity.
func macOf(sender model.ProcID, seq, bid uint64, tag string, subject model.ProcID, data []byte) uint64 {
	h := keyFor(sender)
	h = model.Mix(h ^ seq)
	h = model.Mix(h ^ bid)
	h = model.Mix(h ^ hashString(tag))
	h = model.Mix(h ^ uint64(subject))
	return model.Mix(h ^ hashBytes(data))
}

// digestOf is the unkeyed content digest witnesses vouch for: equal
// payloads digest equally at every receiver.
func digestOf(tag string, subject model.ProcID, data []byte) uint64 {
	h := model.Mix(hashString(tag))
	h = model.Mix(h ^ uint64(subject))
	return model.Mix(h ^ hashBytes(data))
}

// hashString folds a string through the mixer, length-prefixed.
func hashString(s string) uint64 {
	h := model.Mix(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = model.Mix(h ^ uint64(s[i]))
	}
	return h
}

// hashBytes folds a byte slice through the mixer, length-prefixed.
func hashBytes(b []byte) uint64 {
	h := model.Mix(uint64(len(b)))
	for _, x := range b {
		h = model.Mix(h ^ uint64(x))
	}
	return h
}
