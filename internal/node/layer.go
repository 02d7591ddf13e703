package node

import "failstop/internal/model"

// Sender is the one method an interposer adds to the Layer it embeds: how a
// send its inner handler issues goes out through the layer to host, the
// context of the current callback.
type Sender interface {
	SendThrough(host Context, to model.ProcID, p Payload)
}

// Layer is the half of an interposer that is not its protocol: the handler it
// wraps and the one context that handler sees. An endpoint embeds a Layer,
// calls Wrap once, and keeps only its protocol: its Sender, its own
// OnMessage, OnTimer and Gate, and what it adds to Init or a restart.
//
// Heartbeats bypass every layer: a TagHeartbeat payload the inner handler
// sends goes to the host as it is and never reaches the Sender, so no layer
// sequences, seals or retransmits one, and what arrives is the bare payload,
// which each layer's receive path passes on as traffic it did not frame. A
// heartbeat is a periodic signal the next one supersedes, not a message the
// model's channels promise to deliver, and the detector it feeds is
// unreliable by assumption (Theorem 1): a lost heartbeat can only cause a
// suspicion, which the §5 protocol makes safe, and a late or forged one can
// only delay one, so neither retransmission nor authentication buys a
// heartbeat an sFS property.
type Layer struct {
	inner Handler
	ctx   layerCtx
}

// layerCtx is the context the inner handler sees: everything forwards to the
// host except Send, which goes through the layer's Sender unless it is a
// heartbeat.
type layerCtx struct {
	Context
	s Sender
}

func (c *layerCtx) Send(to model.ProcID, p Payload) {
	if p.Tag == TagHeartbeat {
		c.Context.Send(to, p)
		return
	}
	c.s.SendThrough(c.Context, to, p)
}

// Wrap makes l the layer around inner whose sends go through s, normally the
// endpoint that embeds l.
func (l *Layer) Wrap(inner Handler, s Sender) {
	l.inner, l.ctx.s = inner, s
}

// Inner returns the wrapped handler.
func (l *Layer) Inner() Handler { return l.inner }

// Context wraps a host context so that Send flows through the layer.
// Injected actions (SuspectAt and friends) must wrap the context they are
// handed, or their sends would bypass it. The wrapper is the layer's one
// context, rebound to host: like every Context it is good for the current
// callback only.
func (l *Layer) Context(host Context) Context {
	l.ctx.Context = host
	return &l.ctx
}

// Init implements Handler: the inner handler starts on the wrapped context.
func (l *Layer) Init(ctx Context) { l.inner.Init(l.Context(ctx)) }

// OnCrash implements CrashListener for the inner handler.
func (l *Layer) OnCrash(ctx Context) { Crashed(l.inner, l.Context(ctx)) }

// Accepts is h's gate verdict on p; a handler without a Gate accepts
// everything.
func Accepts(h Handler, from model.ProcID, p Payload) bool {
	if g, ok := h.(Gate); ok {
		return g.Accepts(from, p)
	}
	return true
}

// Crashed announces a crash to h if it is a CrashListener.
func Crashed(h Handler, ctx Context) {
	if l, ok := h.(CrashListener); ok {
		l.OnCrash(ctx)
	}
}

// Snapshot is h's durable state, nil for a handler without a Restarter.
func Snapshot(h Handler) []byte {
	if r, ok := h.(Restarter); ok {
		return r.Snapshot()
	}
	return nil
}

// Restart brings h back with state: OnRestart for a Restarter, else Init
// again.
func Restart(h Handler, ctx Context, state []byte) {
	if r, ok := h.(Restarter); ok {
		r.OnRestart(ctx, state)
	} else {
		h.Init(ctx)
	}
}
