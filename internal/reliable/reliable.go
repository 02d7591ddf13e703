// Package reliable is an optional per-link reliable-delivery layer between
// a protocol handler and its host: sequence-numbered sends, cumulative
// acknowledgements, timer-driven retransmission with exponential backoff,
// and receiver-side dedup plus in-order (go-back-N) release: out-of-order
// frames are discarded, not buffered, so every frame the inner handler
// sees arrived in sequence through the host's receive gate.
//
// The paper's §5 protocol broadcasts each "j failed" message exactly once,
// which is sound on the reliable FIFO channels the model assumes but
// starves under the internal/netadv fault plane: a Cut partition (even one
// with a scheduled heal) permanently swallows the broadcast, and sustained
// probabilistic loss can leave quorums forever one sender short. An
// Endpoint restores the model's channel guarantees on top of a faulty
// network — the stubborn-link construction crash-recovery literature layers
// beneath crash-stop algorithms — so that healed partitions recover every
// in-flight detection instead of starving, and duplicated or reordered
// wire messages are masked before the protocol sees them.
//
// Layering. An Endpoint wraps a node.Handler and is itself a node.Handler:
// the host (internal/sim or internal/runtime) calls the Endpoint, the
// Endpoint frames and unframes wire messages, and the wrapped handler runs
// unmodified above it. Sends issued by the inner handler flow through the
// Endpoint because every callback hands the inner handler a wrapping
// node.Context whose Send assigns the next per-link sequence number. The
// netadv fault plane keeps operating on the wire below: data frames retain
// their original payload tag (so tag-targeted fault rules still match), and
// acknowledgement frames travel as TagAck messages.
//
// Timers use the reserved "rel/" name prefix, which the Endpoint consumes
// before the inner handler sees it (the fd layer similarly owns "fd/").
// Retransmission intervals are expressed in host ticks, so the identical
// Options drive the deterministic simulator (retransmit timers as scheduled
// virtual-time events) and the live runtime (real timers via Config.Tick)
// with the same semantics.
//
// Data layout. Per-peer state is materialized on first use, so an endpoint
// costs what the links it actually speaks cost, and is found in a node.Table
// keyed by the peer's id: a full mesh's peers sit in their home slots, so a
// frame finds its link without hashing, and a record never moves, so a
// callback may keep one peer's state while the inner handler's sends add
// another. Each link's unacked queue is ascending by sequence number by
// construction (send appends the next number; OnRestart sorts what it reads
// back), which is what lets a cumulative ack return at once when it covers
// nothing and otherwise retire a prefix, and lets a retry round update due
// frames where they lie — the queue is compacted only when the retry budget
// abandons a frame, and retired slots are cleared so acked payloads are not
// pinned. Wire bytes (the 25-byte header plus the payload, and every ack)
// are carved from one node.Arena per link rather than allocated per frame;
// the arena only bumps forward, because the host may keep a sent frame for
// as long as it likes — and it is the link's, not the endpoint's, so frames
// a host never lets go of (in flight to a crashed peer) pin that link's
// chunks and no other's. The "rel/<peer>" timer name is built once per
// peer. The inner handler sees one context wrapper per endpoint, rebound to
// the host's context at every callback entry — node.Context limits a context
// to the callback that received it, and hosts serialize a process's
// callbacks.
package reliable

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
)

// TagAck marks pure acknowledgement frames. Acks carry a cumulative
// sequence number and are themselves unsequenced and unacknowledged — a
// lost ack only costs a retransmission, which is re-acknowledged.
const TagAck = "REL.ACK"

// DefaultRetryInterval is the initial retransmit interval in ticks:
// comfortably above a default-delay round trip, so a fault-free link sees
// zero retransmissions.
const DefaultRetryInterval = 40

// Options configures the reliable-delivery layer.
type Options struct {
	// Enabled turns the layer on. The zero Options leave the network bare.
	Enabled bool
	// RetryInterval is the initial retransmission interval in ticks; it
	// doubles after each retransmission round on a link (exponential
	// backoff), up to 16 * RetryInterval. Default: DefaultRetryInterval.
	RetryInterval int64
	// MaxRetries bounds how many times one frame is retransmitted before
	// the link gives it up. 0 retries forever (a stubborn link): runs with
	// a crashed or permanently cut peer then never quiesce on their own, so
	// pair MaxRetries=0 with a simulation horizon.
	MaxRetries int
}

func (o Options) withDefaults() Options {
	if o.RetryInterval == 0 {
		o.RetryInterval = DefaultRetryInterval
	}
	return o
}

// Validate reports the first problem with the options, or nil.
func (o Options) Validate() error {
	if o.RetryInterval < 0 {
		return fmt.Errorf("reliable: negative RetryInterval %d", o.RetryInterval)
	}
	if o.MaxRetries < 0 {
		return fmt.Errorf("reliable: negative MaxRetries %d", o.MaxRetries)
	}
	return nil
}

// Wire frame layout: a 25-byte header, followed (for data frames) by the
// original payload bytes. Data frames keep the original Tag and Subject so
// tag-targeted fault rules and trace-level tooling still see the protocol
// message they apply to. base is the lowest sequence number the sender
// still promises to deliver: everything below it is either already acked
// or abandoned (retry budget exhausted), so the receiver may skip the gap
// instead of waiting forever on a frame that will never come.
const (
	kindData  byte = 1
	kindAck   byte = 2
	headerLen      = 25 // kind(1) + seq(8) + cumulative ack(8) + base(8)
)

const timerPrefix = "rel/"

// frame is one unacknowledged send.
type frame struct {
	seq     uint64
	payload node.Payload // the original, unframed payload
	retries int
	sentAt  int64 // host time of the last transmission
}

// peerState is the per-directed-link state of one Endpoint.
type peerState struct {
	// Sender side: sequence counter, unacked frames (ascending seq), and
	// the current backed-off retry interval.
	nextSeq  uint64
	unacked  []frame
	interval int64
	armed    bool       // the retransmit timer is pending
	timer    string     // "rel/<peer>"
	arena    node.Arena // wire bytes of every frame and ack sent on the link

	// Receiver side: the next in-order sequence to release. Out-of-order
	// frames are not buffered (go-back-N): retransmission redelivers them
	// in sequence, each through the host's receive gate.
	nextExpected uint64
}

// base returns the lowest sequence number this sender still promises on the
// link: everything below it is acked or abandoned.
func (ps *peerState) base() uint64 {
	if len(ps.unacked) > 0 {
		return ps.unacked[0].seq
	}
	return ps.nextSeq + 1
}

// Endpoint wraps a node.Handler with reliable delivery on every link it
// speaks. It implements node.Handler, node.Gate, and node.CrashListener;
// hosts treat it exactly like the handler it wraps.
//
// All mutable state is touched only inside host callbacks, which hosts
// serialize per process; the counters are atomic so live-backend stats can
// be read concurrently.
type Endpoint struct {
	inner node.Handler
	opts  Options
	peers node.Table[peerState]
	spans *obs.SpanRecorder

	ctx    relCtx // the one context the inner handler sees
	resend []int  // onRetry's scratch: indices of the frames to resend

	retransmits obs.Counter
	ackedDups   obs.Counter
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

// ReliableStats returns the layer's counters: frames retransmitted and
// received duplicates that were re-acknowledged and suppressed. Hosts
// discover this method structurally to surface the counters in their stats.
func (e *Endpoint) ReliableStats() (retransmits, ackedDuplicates int) {
	return int(e.retransmits.Value()), int(e.ackedDups.Value())
}

// SetSpans attaches a span recorder: every retransmitted frame records a
// retransmit span (detection-grade, not sampled — retransmissions are rare
// and each one is a fault-plane interaction worth seeing). Call before the
// host starts delivering.
func (e *Endpoint) SetSpans(rec *obs.SpanRecorder) { e.spans = rec }

// Context wraps a host context so that Send flows through the reliable
// layer. Injected actions (SuspectAt and friends) must wrap the context
// they are handed, or their sends would bypass sequencing. The wrapper is
// the endpoint's one context, rebound to host: like every node.Context it is
// good for the current callback only.
func (e *Endpoint) Context(host node.Context) node.Context {
	e.ctx.Context = host
	return &e.ctx
}

// relCtx is the context the inner handler sees: everything forwards to the
// host except Send.
type relCtx struct {
	node.Context
	e *Endpoint
}

func (c *relCtx) Send(to model.ProcID, p node.Payload) {
	c.e.send(c.Context, to, p)
}

// peer returns the state of the link to p, made on first use.
func (e *Endpoint) peer(p model.ProcID) *peerState {
	ps, added := e.peers.Add(p)
	if added {
		e.resetPeer(ps, p)
	}
	return ps
}

// resetPeer makes ps the state of a link to p that has carried nothing.
func (e *Endpoint) resetPeer(ps *peerState, p model.ProcID) {
	*ps = peerState{
		interval:     e.opts.RetryInterval,
		timer:        timerPrefix + strconv.Itoa(int(p)),
		nextExpected: 1,
	}
}

// Init implements node.Handler.
func (e *Endpoint) Init(ctx node.Context) {
	e.inner.Init(e.Context(ctx))
}

// OnCrash implements node.CrashListener.
func (e *Endpoint) OnCrash(ctx node.Context) {
	if l, ok := e.inner.(node.CrashListener); ok {
		l.OnCrash(e.Context(ctx))
	}
}

// endpointSnapshot is the durable-state wire form of an Endpoint
// (internal/recovery): sequence counters and unacked frames per peer,
// sorted by peer id so equal states encode byte-identically, plus the
// wrapped handler's own snapshot. The backed-off retry interval and timer
// arming are transient and rebuilt on restart.
//
//sfs:wire
type endpointSnapshot struct {
	Peers []peerSnapshot `json:"peers,omitempty"`
	Inner []byte         `json:"inner,omitempty"`
}

// peerSnapshot is one directed link's durable state.
//
//sfs:wire
type peerSnapshot struct {
	Peer         model.ProcID    `json:"peer"`
	NextSeq      uint64          `json:"next_seq"`
	NextExpected uint64          `json:"next_expected"`
	Unacked      []frameSnapshot `json:"unacked,omitempty"`
}

// frameSnapshot is one unacked frame: the original payload plus its link
// sequence number and spent retry budget.
//
//sfs:wire
type frameSnapshot struct {
	Seq     uint64       `json:"seq"`
	Tag     string       `json:"tag,omitempty"`
	Subject model.ProcID `json:"subject,omitempty"`
	Data    []byte       `json:"data,omitempty"`
	Retries int          `json:"retries,omitempty"`
}

// Snapshot implements node.Restarter: it encodes the per-peer sequence
// state, every unacked frame, and the wrapped handler's snapshot. This is
// what completes the stubborn-link construction for crash-recovery: a
// durable restart resumes retransmitting exactly the frames the crash
// interrupted, with the sequence counters it crashed with, so restarts
// neither regress sequence numbers nor re-release delivered frames. It
// does not mutate the endpoint.
func (e *Endpoint) Snapshot() []byte {
	var snap endpointSnapshot
	for _, id := range e.peers.IDs(nil) {
		ps := e.peers.Get(id)
		p := peerSnapshot{Peer: id, NextSeq: ps.nextSeq, NextExpected: ps.nextExpected}
		for _, f := range ps.unacked {
			p.Unacked = append(p.Unacked, frameSnapshot{
				Seq: f.seq, Tag: f.payload.Tag, Subject: f.payload.Subject,
				Data: f.payload.Data, Retries: f.retries,
			})
		}
		snap.Peers = append(snap.Peers, p)
	}
	if r, ok := e.inner.(node.Restarter); ok {
		snap.Inner = r.Snapshot()
	}
	b, err := json.Marshal(snap)
	if err != nil {
		panic(fmt.Sprintf("reliable: encoding endpoint snapshot: %v", err))
	}
	return b
}

// OnRestart implements node.Restarter. The link state is restored before
// the inner handler restarts, so sends the inner handler issues while
// recovering consume the restored sequence counters instead of reusing
// spent ones. Restored unacked frames are stamped due immediately: the
// first retry round after the restart re-announces everything the crash
// interrupted. The bytes were read back from storage, so what they name is
// checked before it is trusted: peers this process cannot send to and frames
// outside the sequence space the snapshot itself claims are dropped, and the
// rest are put in sequence order (the unacked queue's invariant); a peer the
// snapshot names twice gets its last entry. A nil or undecodable state
// (amnesia) resets every link —
// which also means a restarted amnesiac sender reuses sequence numbers its
// peers have already seen, and its new frames die as duplicates until its
// counters catch up: the classic argument for persistence-mediated
// recovery, observable in experiment E15.
func (e *Endpoint) OnRestart(ctx node.Context, state []byte) {
	e.peers = node.Table[peerState]{}
	var innerState []byte
	if len(state) > 0 {
		var snap endpointSnapshot
		if err := json.Unmarshal(state, &snap); err == nil {
			for _, p := range snap.Peers {
				if p.Peer < 1 || int(p.Peer) > ctx.N() || p.Peer == ctx.Self() {
					continue
				}
				ps, _ := e.peers.Add(p.Peer)
				e.resetPeer(ps, p.Peer)
				ps.nextSeq, ps.nextExpected = p.NextSeq, max(p.NextExpected, 1)
				for _, f := range p.Unacked {
					if f.Seq == 0 || f.Seq > p.NextSeq {
						continue
					}
					ps.unacked = append(ps.unacked, frame{
						seq:     f.Seq,
						payload: node.Payload{Tag: f.Tag, Subject: f.Subject, Data: f.Data},
						retries: f.Retries,
						sentAt:  ctx.Now() - e.opts.RetryInterval, // due now
					})
				}
				sort.Slice(ps.unacked, func(a, b int) bool { return ps.unacked[a].seq < ps.unacked[b].seq })
				if len(ps.unacked) > 0 {
					e.arm(ctx, ps, 1)
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

// send sequences, buffers, and transmits one payload from the inner
// handler, arming the link's retransmit timer.
func (e *Endpoint) send(host node.Context, to model.ProcID, p node.Payload) {
	ps := e.peer(to)
	ps.nextSeq++
	ps.unacked = append(ps.unacked, frame{seq: ps.nextSeq, payload: p, sentAt: host.Now()})
	host.Send(to, e.frameData(ps, &ps.unacked[len(ps.unacked)-1]))
	e.arm(host, ps, ps.interval)
}

// frameData encodes a data frame, piggybacking the cumulative ack for the
// reverse direction of the link and the sender's current base.
func (e *Endpoint) frameData(ps *peerState, f *frame) node.Payload {
	data := ps.arena.Alloc(headerLen + len(f.payload.Data))
	data[0] = kindData
	binary.BigEndian.PutUint64(data[1:9], f.seq)
	binary.BigEndian.PutUint64(data[9:17], ps.nextExpected-1)
	binary.BigEndian.PutUint64(data[17:25], ps.base())
	copy(data[headerLen:], f.payload.Data)
	return node.Payload{Tag: f.payload.Tag, Subject: f.payload.Subject, Data: data}
}

func (e *Endpoint) arm(host node.Context, ps *peerState, delay int64) {
	if ps.armed {
		return
	}
	if delay < 1 {
		delay = 1
	}
	ps.armed = true
	host.SetTimer(ps.timer, delay)
}

// OnTimer implements node.Handler: "rel/" timers drive retransmission,
// everything else forwards to the inner handler.
func (e *Endpoint) OnTimer(ctx node.Context, name string) {
	if peerStr, ok := strings.CutPrefix(name, timerPrefix); ok {
		if id, err := strconv.ParseInt(peerStr, 10, 32); err == nil {
			e.onRetry(ctx, model.ProcID(id))
		}
		return
	}
	e.inner.OnTimer(e.Context(ctx), name)
}

// onRetry retransmits the unacked frames that have gone a full retry
// interval without an ack (cumulative acks make this go-back-N), backs the
// interval off when anything was actually resent, and re-arms for the
// earliest outstanding deadline while work remains. Frames transmitted
// after the timer was armed are not due yet and ride to the next round —
// a fault-free link therefore never retransmits.
func (e *Endpoint) onRetry(host node.Context, to model.ProcID) {
	ps := e.peer(to)
	ps.armed = false
	if len(ps.unacked) == 0 {
		ps.interval = e.opts.RetryInterval
		return
	}
	now := host.Now()
	// Due frames are updated where they lie; w trails i only once the retry
	// budget has abandoned a frame, and only then are frames moved.
	resend, w := e.resend[:0], 0
	for i := range ps.unacked {
		f := &ps.unacked[i]
		due := now-f.sentAt >= ps.interval
		if due && e.opts.MaxRetries > 0 && f.retries >= e.opts.MaxRetries {
			continue // retry budget exhausted: abandon the frame
		}
		if due {
			f.retries++
			f.sentAt = now
			resend = append(resend, w)
		}
		if w != i {
			ps.unacked[w] = *f
		}
		w++
	}
	clear(ps.unacked[w:])
	ps.unacked = ps.unacked[:w]
	e.resend = resend
	// Transmit after the rebuild so each frame carries the post-abandonment
	// base — the receiver learns which gaps will never fill.
	for _, i := range resend {
		f := &ps.unacked[i]
		e.retransmits.Add(1)
		if e.spans != nil {
			e.spans.Record(obs.Span{
				Time: now, Kind: obs.SpanRetransmit,
				Proc: host.Self(), Peer: to, Tag: f.payload.Tag,
				Note: "seq=" + strconv.FormatUint(f.seq, 10) + " try=" + strconv.Itoa(f.retries),
			})
		}
		host.Send(to, e.frameData(ps, f))
	}
	if len(resend) > 0 {
		ps.interval = min(2*ps.interval, 16*e.opts.RetryInterval)
	}
	if len(ps.unacked) == 0 {
		ps.interval = e.opts.RetryInterval
		return
	}
	due := ps.unacked[0].sentAt
	for i := 1; i < len(ps.unacked); i++ {
		if at := ps.unacked[i].sentAt; at < due {
			due = at
		}
	}
	e.arm(host, ps, due+ps.interval-now)
}

// OnMessage implements node.Handler: acks retire unacked frames; data
// frames are deduplicated and released to the inner handler in sequence
// order, each receipt answered with a cumulative ack. Out-of-order frames
// are discarded (go-back-N): the cumulative ack tells the sender where to
// resume, and retransmission redelivers them in order — so every released
// frame is one the host's receive gate approved.
func (e *Endpoint) OnMessage(ctx node.Context, from model.ProcID, p node.Payload) {
	if p.Tag == TagAck {
		if wf, ok := decodeFrame(p.Data); ok && wf.kind == kindAck {
			e.processAck(e.peer(from), wf.ack)
		}
		return
	}
	wf, ok := decodeFrame(p.Data)
	if !ok || wf.kind != kindData {
		// Unframed traffic (a sender without the layer): pass through.
		e.inner.OnMessage(e.Context(ctx), from, p)
		return
	}
	ps := e.peer(from)
	e.processAck(ps, wf.ack)
	// Nothing below base is still coming (acked or abandoned): skip the
	// gap so a bounded-retry link cannot wedge its receiver.
	if wf.base > ps.nextExpected {
		ps.nextExpected = wf.base
	}
	switch {
	case wf.seq < ps.nextExpected:
		// Already released (a retransmission crossed our ack) or abandoned.
		// Count it and let the ack below re-cover it.
		e.ackedDups.Add(1)
	case wf.seq == ps.nextExpected:
		ps.nextExpected++
		e.inner.OnMessage(e.Context(ctx), from, node.Payload{Tag: p.Tag, Subject: p.Subject, Data: wf.data})
	default:
		// Out of order: discard. The sender's retry timer redelivers it
		// once the gap frame has been released.
	}
	e.sendAck(ctx, from, ps)
}

func (e *Endpoint) sendAck(host node.Context, to model.ProcID, ps *peerState) {
	hdr := ps.arena.Alloc(headerLen)
	hdr[0] = kindAck
	binary.BigEndian.PutUint64(hdr[9:17], ps.nextExpected-1)
	host.Send(to, node.Payload{Tag: TagAck, Data: hdr})
}

// processAck retires the prefix of the unacked queue the cumulative ack
// covers — the queue is ascending, so an ack below its head covers nothing —
// and resets the backoff once the link is clean.
func (e *Endpoint) processAck(ps *peerState, ack uint64) {
	if len(ps.unacked) == 0 || ps.unacked[0].seq > ack {
		return
	}
	n := 1
	for n < len(ps.unacked) && ps.unacked[n].seq <= ack {
		n++
	}
	// Written out rather than slices.Delete: with the generic linked in, the
	// benchmark's workloads that never run this package read 3–5 % slower
	// (code layout; measured on check-replay, flood-mesh-n10, sweep-grid).
	kept := copy(ps.unacked, ps.unacked[n:])
	clear(ps.unacked[kept:]) // retired slots must not pin acked payloads
	ps.unacked = ps.unacked[:kept]
	if kept == 0 {
		ps.interval = e.opts.RetryInterval
	}
}

// Accepts implements node.Gate. Frames the Endpoint consumes itself (acks,
// duplicates, out-of-order data) are always accepted; the one frame that
// would be released to the inner handler right now — the next in sequence,
// after accounting for gaps the frame's base says will never fill — is
// subject to the inner gate, so the §5 sFS2d receive deferral keeps
// working through the layer. Since out-of-order frames are discarded
// rather than buffered, this is the only path into the inner handler.
// Accepts must not mutate state: hosts call it speculatively.
func (e *Endpoint) Accepts(from model.ProcID, p node.Payload) bool {
	if p.Tag == TagAck {
		return true
	}
	wf, ok := decodeFrame(p.Data)
	if !ok || wf.kind != kindData {
		if g, gok := e.inner.(node.Gate); gok {
			return g.Accepts(from, p)
		}
		return true
	}
	expected := uint64(1)
	if ps := e.peers.Get(from); ps != nil {
		expected = ps.nextExpected
	}
	if wf.base > expected {
		expected = wf.base // OnMessage will skip the abandoned gap
	}
	if wf.seq != expected {
		return true // duplicate or out-of-order: consumed internally
	}
	if g, gok := e.inner.(node.Gate); gok {
		return g.Accepts(from, node.Payload{Tag: p.Tag, Subject: p.Subject, Data: wf.data})
	}
	return true
}

// WireBody locates the framed payload bytes inside a data frame's wire
// data: it returns the offset at which the original (pre-framing) payload
// begins, and ok=false for data that is not a reliable-layer data frame
// (acks, or traffic from a sender without the layer). The netadv fault
// plane uses it — via node.WireBodyFn, to keep the fault plane from
// importing this package — to reach through the reliable header when a
// Byzantine rule must mutate or reseal the inner payload without breaking
// the framing.
func WireBody(data []byte) (offset int, ok bool) {
	wf, ok := decodeFrame(data)
	if !ok || wf.kind != kindData {
		return 0, false
	}
	return headerLen, true
}

func init() { node.WireBodyFn = WireBody }

// wireFrame is a decoded frame header plus the original payload bytes.
type wireFrame struct {
	kind           byte
	seq, ack, base uint64
	data           []byte
}

// decodeFrame splits a wire payload's data into the frame header and the
// original payload bytes. ok is false for data that does not carry a valid
// frame header.
func decodeFrame(data []byte) (wireFrame, bool) {
	if len(data) < headerLen {
		return wireFrame{}, false
	}
	kind := data[0]
	if kind != kindData && kind != kindAck {
		return wireFrame{}, false
	}
	wf := wireFrame{
		kind: kind,
		seq:  binary.BigEndian.Uint64(data[1:9]),
		ack:  binary.BigEndian.Uint64(data[9:17]),
		base: binary.BigEndian.Uint64(data[17:25]),
		data: data[headerLen:],
	}
	if len(wf.data) == 0 {
		wf.data = nil
	}
	return wf, true
}
