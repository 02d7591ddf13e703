// Package byz is an optional Byzantine-fault validation layer between a
// protocol handler and its host: per-sender frame authentication, echo
// quorums that cross-check broadcast consistency, and duplicate discard.
// On detecting misbehavior — a bad MAC or equivocating payloads for one
// broadcast — an Endpoint masks the faulty
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
// Authentication. Every send the inner handler issues is sealed, except a
// heartbeat, which node.Layer hands to the host as it is (a heartbeat is no
// evidence about what the protocol decides: see node.Layer). A sealed frame
// is a 25-byte header (kind, per-link sequence number, per-sender broadcast
// id, MAC) prepended to the payload data, with the outer Tag and Subject
// preserved so tag-targeted fault rules and trace tooling still see the
// protocol message. The MAC is a deterministic splitmix64 fold keyed per
// sender; keys are public and derivable — the layer models integrity (a third
// party cannot alter a frame undetected), not secrecy. In particular a
// Byzantine sender can sign its own lies, which is exactly why
// equivocation cannot be caught by the MAC alone and needs the echo
// quorum below.
//
// Broadcast ids and witness-hold. Consecutive sends with identical
// (tag, subject, data) share one broadcast id — a broadcast loop seals n-1
// frames under a single bid. Frames tagged node.TagSusp (the detector's
// suspicions, whose forgery is what breaks fail-stop safety) are not
// released on arrival: the receiver holds the frame, broadcasts a sealed
// echo naming (origin, bid, content digest) to every other process, and
// releases the held frame only once a majority of the n-1 potential
// receivers, (n-1)/2+1 distinct processes — itself
// included — have vouched for the digest it saw. Two conflicting digests for
// one (origin, bid) convict the origin of equivocation. With that threshold,
// an equivocation split in which no variant reaches a majority of the
// receivers is convicted deterministically, before any variant can be
// released; a variant that does reach a live majority is released
// consistently everywhere — indistinguishable from an erroneous-but-
// consistent suspicion, which the §5 protocol already tolerates by design.
//
// Replay. Receivers remember each sender's sequence numbers. A frame whose
// (sender, sequence number) was already seen is discarded, whatever its tag
// and however late it lands, and convicts no one: in an asynchronous system
// no delay bound tells a late network duplicate from a replay, so no
// timeout may convict on one. A replay does no harm under this rule. A
// ghost of a delivered frame is discarded; a ghost of a frame not yet
// delivered carries the sender's valid MAC, so it is only a late delivery,
// which the asynchronous model already allows.
//
// Limitations, by design: a lying witness — a process whose echoes
// themselves are forged — can frame an honest origin, since conviction
// trusts digest conflicts. The fault plane forges only its victim's own
// traffic, but that includes the victim's echoes: an Equivocate rule whose
// tags reach TagEcho (an untagged rule does) reseals the echoes some
// receivers get with their Subject rotated. Such an echo names another
// origin, and broadcast ids are counted per origin, so its digest can
// conflict with that origin's own broadcast under the same id, which
// convicts the honest origin. The builtin plans and the experiments tag
// their equivocators with the detector's SUSP only, so they never exercise
// that; the root package's generated stack runs do. Heartbeats are not
// sealed, so a Corrupt rule that reaches them no longer convicts on a bad
// heartbeat MAC: its victim is convicted on its SUSP and echo frames, or not
// at all. The sweep golden's conviction counts did not move when heartbeats
// stopped being sealed. Echoes from masked processes still count as
// testimony: an echo can only corroborate a digest the receiver computed
// itself or create a conflict that convicts the origin, and counting it
// keeps witness quorums live when masked processes sit among the receivers.
// Restarting a process with amnesia
// (internal/recovery) resets its counters: peers that remember the first
// incarnation discard its frames under reused sequence numbers as
// duplicates, and a reused broadcast id whose content differs from the
// first incarnation's can convict it of equivocation — persist the counters
// (durable recovery) to restart cleanly.
// Held frames and echo records are transient and die with a crash, like the
// reliable layer's pending acks.
//
// Data layout. Per-peer state lives in two node.Tables keyed by the peer's
// id, each record made on first use: links holds what this endpoint sends to
// a destination (its sequence counter and arena), seen the sequence numbers
// each sender's frames arrived under. A full mesh's peers sit in
// their home slots, so a frame finds its sender's record without hashing.
// seen's record is an anti-replay window, as in IPsec and DTLS: a watermark
// below which every number has arrived and a 128-bit window above it, inline,
// so an honest sender's frames, in order or reordered within the window, cost
// its receiver no allocation. Sequence numbers are the sender's to choose, so
// a Byzantine one can still leave gaps or jump far ahead; a number beyond the
// window goes into a map the record makes then, one entry a number, as any
// set of chosen numbers must. Witness rounds live in one store per endpoint:
// they are carved from chunks that never move (16 rounds, doubling to 1,024,
// the way the simulator carves its links), and one map keyed by (origin,
// broadcast id) finds them. A round keeps its first voucher and its first
// held frame inline, and every voucher set's words — quorum.Words(n) of them,
// so adding a witness never grows the set — are carved from one chunk of
// words, so a round an honest broadcast opens costs no allocation of its
// own. A conviction deletes the culprit's rounds from the map. pump never
// walks the rounds: it walks a worklist of the open rounds only, kept sorted
// by (origin, bid) — the order, and the repeat-until-a-pass-changes-nothing
// rule, that a scan of every round in sorted order would follow. A round is
// open until it has been released with a single vouched digest; it goes back
// on the list if a later echo vouches for a second digest (so the
// equivocation is still convicted), and a conviction takes the culprit's
// rounds off it. Settled rounds therefore cost a timer or an echo nothing.
// The masked set is a quorum.Set. Sealed bodies are carved from one
// node.Arena per destination rather than allocated per frame; the arena only
// bumps forward, because the host (and the reliable layer's unacked queue)
// may keep a sent body for as long as it likes — and it is the
// destination's, not the endpoint's, so bodies that are never let go of
// (unacked to a crashed peer) pin that link's chunks and no other's. The
// inner handler and its context wrapper are the embedded node.Layer's.
package byz

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
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
}

// voucher is one digest vouched for in a round, and by whom (self included).
type voucher struct {
	digest uint64
	by     quorum.Set
}

// round is the witness state of one (origin, broadcast id): which digests
// have been vouched for by whom, and the frames held pending release. A
// round never moves (it is carved from a chunk), so digests and held start
// in its own one-element arrays: a round that sees one digest and one frame,
// as every honest broadcast does, allocates neither slice.
type round struct {
	origin       model.ProcID
	bid          uint64
	digests      []voucher
	held         []node.Payload // unsealed frames, arrival order
	firstVoucher [1]voucher
	firstHeld    [1]node.Payload
	myDigest     uint64
	haveMine     bool // we received the frame itself (not just echoes)
	echoed       bool // our echo broadcast went out
	released     bool
	open         bool // on the worklist: unreleased, or vouched for two digests
}

// roundKey names a witness round: the broadcast's origin and its id.
type roundKey struct {
	origin model.ProcID
	bid    uint64
}

// maxRoundChunk is the most rounds one chunk carves: chunks double from 16
// up to it, like the simulator's link arena.
const maxRoundChunk = 1024

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

// Endpoint wraps a node.Handler with the validation layer on every link it
// speaks. It implements node.Handler, node.Gate, node.CrashListener, and
// node.Restarter; hosts treat it exactly like the handler it wraps.
//
// All mutable state is touched only inside host callbacks, which hosts
// serialize per process; the counters are atomic so live-backend stats can
// be read concurrently.
type Endpoint struct {
	node.Layer
	spans *obs.SpanRecorder
	// convict is invoked once per conviction with the wrapped context, so
	// the suspicion it feeds into the detector broadcasts through this
	// layer's sealing (and the reliable layer above, when enabled).
	convict func(ctx node.Context, culprit model.ProcID)

	witnesses int
	width     int // quorum.Words(n): the words of every voucher set

	// Sender side: per-destination links and the broadcast-id
	// content-equality state.
	links       node.Table[link]
	bid         uint64
	lastTag     string
	lastSubject model.ProcID
	lastData    []byte
	haveLast    bool

	// Receiver side. seen holds, per sender, the sequence numbers its frames
	// arrived under, as a window over a watermark (seqSet); rounds finds the
	// witness round of a broadcast.
	// Rounds are carved from chunks that never move (free is the current
	// chunk's unused tail, chunk its size) and voucher sets from one chunk of
	// words (words is its unused tail).
	seen   node.Table[seqSet]
	rounds map[roundKey]*round
	free   []round
	chunk  int
	words  []uint64
	masked quorum.Set
	// open is pump's worklist: the open rounds in (origin, bid) order. A
	// round that settles or is convicted is only marked (round.open) and
	// the list is marked stale; pump sweeps it at the end of a pass.
	open  []*round
	stale bool

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

// Wrap builds an Endpoint around inner. The endpoint reads nothing of the
// options: whether the layer is on (Enabled) is for the stack that wraps.
func Wrap(inner node.Handler, _ Options) *Endpoint {
	e := &Endpoint{}
	e.Wrap(inner, e)
	return e
}

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

// resolve fixes the witness threshold and the voucher set width once the
// system size is known.
func (e *Endpoint) resolve(ctx node.Context) {
	if e.witnesses == 0 {
		e.witnesses = (ctx.N()-1)/2 + 1
		e.width = quorum.Words(ctx.N())
	}
}

// Init implements node.Handler.
func (e *Endpoint) Init(ctx node.Context) {
	e.resolve(ctx)
	e.Layer.Init(ctx)
}

// SendThrough implements node.Sender: it seals and transmits one payload
// from the inner handler, assigning the per-link sequence number and the
// content-equality broadcast id.
func (e *Endpoint) SendThrough(host node.Context, to model.ProcID, p node.Payload) {
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
	e.Inner().OnTimer(e.Context(ctx), name)
	e.pump(ctx)
}

// OnMessage implements node.Handler: sealed frames are authenticated,
// deduplicated, and either held for their witness quorum or released to
// the inner handler; echoes feed the witness records; unsealed traffic (a
// heartbeat, or a sender without the layer) passes through untouched unless
// its sender is masked.
func (e *Endpoint) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	if !Sealed(p.Data) {
		if e.masked.Has(from) {
			e.maskedCount.Add(1)
			return
		}
		e.Inner().OnMessage(e.Context(ctx), from, p)
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
	if seen, _ := e.seen.Add(from); !seen.add(seq) {
		return // a network duplicate or a replay: both are discarded
	}
	if isEcho {
		e.onEcho(ctx, from, p.Subject, data)
		return
	}
	inner := node.Payload{Tag: p.Tag, Subject: p.Subject, Data: data}
	if p.Tag != node.TagSusp {
		e.Inner().OnMessage(e.Context(ctx), from, inner)
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
			e.SendThrough(ctx, q, node.Payload{Tag: TagEcho, Subject: origin, Data: data})
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

// round returns the witness round of (origin, bid), carving and enlisting
// it on first use.
func (e *Endpoint) round(origin model.ProcID, bid uint64) *round {
	key := roundKey{origin, bid}
	if r := e.rounds[key]; r != nil {
		return r
	}
	if len(e.free) == 0 {
		e.chunk = min(max(2*e.chunk, 16), maxRoundChunk)
		e.free = make([]round, e.chunk)
	}
	r := &e.free[0]
	e.free = e.free[1:]
	r.origin, r.bid = origin, bid
	r.digests, r.held = r.firstVoucher[:0], r.firstHeld[:0]
	if e.rounds == nil {
		e.rounds = make(map[roundKey]*round)
	}
	e.rounds[key] = r
	e.enlist(r)
	return r
}

// set returns an empty voucher set wide enough for every id in 1..n, carved
// from the endpoint's chunk of words, so adding a witness never grows it.
func (e *Endpoint) set() quorum.Set {
	if len(e.words) < e.width {
		e.words = make([]uint64, e.chunk*e.width) // one set per round of a chunk
	}
	s := quorum.Set(e.words[:e.width:e.width])
	e.words = e.words[e.width:]
	return s
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
	s := e.set()
	s.Add(by)
	r.digests = append(r.digests, voucher{digest: digest, by: s})
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
			if len(r.held) > 0 && !node.Accepts(e.Inner(), r.origin, r.held[0]) {
				continue // retry on the next pump
			}
			r.released = true
			r.open, e.stale = false, true
			held := r.held
			r.held = nil
			for _, p := range held {
				e.Inner().OnMessage(e.Context(ctx), r.origin, p)
			}
			r.firstHeld[0] = node.Payload{} // released frames are not pinned
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
			r.held, r.firstHeld[0] = nil, node.Payload{} // the chunk outlives the round
		}
	}
	maps.DeleteFunc(e.rounds, func(k roundKey, _ *round) bool { return k.origin == culprit })
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
		return e.masked.Has(from) || node.Accepts(e.Inner(), from, p)
	}
	seq, _, data, ok := openBody(from, p.Tag, p.Subject, p.Data)
	if !ok || p.Tag == TagEcho || e.masked.Has(from) || p.Tag == node.TagSusp {
		return true
	}
	if seen := e.seen.Get(from); seen != nil && seen.has(seq) {
		return true // a repeated frame: discarded internally
	}
	return node.Accepts(e.Inner(), from, node.Payload{Tag: p.Tag, Subject: p.Subject, Data: data})
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
// restarted process's fresh frames look like duplicates (or collide its new
// broadcasts with remembered ones) at every peer. It does not mutate the
// endpoint.
func (e *Endpoint) Snapshot() []byte {
	snap := endpointSnapshot{Bid: e.bid, Masked: e.masked.Members()}
	for _, id := range e.links.IDs(nil) {
		snap.Peers = append(snap.Peers, peerSeqSnapshot{Peer: id, NextSeq: e.links.Get(id).seq})
	}
	snap.Inner = node.Snapshot(e.Inner())
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
// an amnesiac restart therefore reuses spent sequence numbers, whose frames
// peers that remember the first incarnation discard as duplicates, and
// spent broadcast ids, which can get it convicted as an equivocator: the
// byz-layer echo of the reliable layer's amnesia argument (experiment E15). The bytes
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
	e.seen = node.Table[seqSet]{}
	e.rounds, e.free, e.chunk, e.words = nil, nil, 0, nil
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
	node.Restart(e.Inner(), e.Context(ctx), innerState)
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
