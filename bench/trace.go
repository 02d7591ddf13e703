//sfs:allow detwallclock the tracer times host execution of each layer; its readings are benchmark output, never simulation input

package main

import (
	"time"

	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/node"
)

// layer names one of the repo's packages in the traced run. A span belongs
// to the layer whose code runs while it is open and no child span is.
type layer uint8

const (
	layerHarness layer = iota // bench's own assembly and bookkeeping
	layerApp                  // inert flood handlers
	layerSim
	layerNetadv
	layerReliable
	layerByz
	layerCore
	layerFD
	layerCluster
	layerModel
	layerChecker
	layerRewrite
	layerSweep
	numLayers
)

var layerNames = [numLayers]string{
	"harness", "app", "sim", "netadv", "reliable", "byz", "core", "fd",
	"cluster", "model", "checker", "rewrite", "sweep",
}

// span is one timed interval at a layer boundary. parent is the index of
// the span that was open when this one began (-1 for a root), which on a
// single goroutine is exactly the span that caused it.
type span struct {
	layer      layer
	parent     int32
	op         int32
	start, end int64 // host nanoseconds since the tracer's epoch
}

// tracer records the spans of one op on one goroutine. Spans stay in memory
// until the op ends; reduce then folds them into per-layer self times and
// the buffer is reused, so a traced run's memory is bounded by its largest
// op rather than by its length.
type tracer struct {
	epoch time.Time
	op    int32
	cur   int32
	spans []span
	self  [numLayers]int64 // host ns: span time minus child span time
	calls [numLayers]int64 // spans opened
	// msgsIn counts the messages handed up into each layer's handler: what
	// the layer below released, as opposed to what it received.
	msgsIn [numLayers]int64
	// stats, when set, is where an op whose runs finish on other goroutines
	// (the sweep's workers) pools their histories.
	stats *simStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

func (t *tracer) enter(l layer) int32 {
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, parent: t.cur, op: t.op, start: int64(time.Since(t.epoch))})
	t.cur = idx
	return idx
}

func (t *tracer) exit(idx int32) {
	t.spans[idx].end = int64(time.Since(t.epoch))
	t.cur = t.spans[idx].parent
}

// reduce folds the buffered spans into self and calls, and empties the
// buffer. A span's self time is its duration minus the durations of its
// direct children; children always follow their parent in the buffer. Every
// op ends with it; on the nil tracer of an untraced run it does nothing.
func (t *tracer) reduce() {
	if t == nil {
		return
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		s := t.spans[i]
		d := s.end - s.start
		t.self[s.layer] += d
		t.calls[s.layer]++
		if s.parent >= 0 {
			t.self[t.spans[s.parent].layer] -= d
		}
	}
	t.spans = t.spans[:0]
	t.cur = -1
	t.op++
}

// merge adds another tracer's reduced totals (a sweep worker's) into t.
func (t *tracer) merge(o *tracer) {
	for l := range t.self {
		t.self[l] += o.self[l]
		t.calls[l] += o.calls[l]
		t.msgsIn[l] += o.msgsIn[l]
	}
}

// handlerShim times every callback into inner as a span of layer own, and
// hands inner a context whose calls back into the host are spans of layer
// host. It forwards the optional interfaces hosts and outer layers discover
// by type assertion, with the answer a handler lacking them would get, so
// the wrapped stack behaves exactly like the bare one.
type handlerShim struct {
	inner     node.Handler
	tr        *tracer
	own, host layer
}

var (
	_ node.Gate          = (*handlerShim)(nil)
	_ node.CrashListener = (*handlerShim)(nil)
	_ node.Restarter     = (*handlerShim)(nil)
)

func (h *handlerShim) ctx(c node.Context) node.Context {
	return &ctxShim{Context: c, tr: h.tr, host: h.host}
}

func (h *handlerShim) Init(c node.Context) {
	i := h.tr.enter(h.own)
	h.inner.Init(h.ctx(c))
	h.tr.exit(i)
}

func (h *handlerShim) OnMessage(c node.Context, from model.ProcID, p node.Payload) {
	h.tr.msgsIn[h.own]++
	i := h.tr.enter(h.own)
	h.inner.OnMessage(h.ctx(c), from, p)
	h.tr.exit(i)
}

func (h *handlerShim) OnTimer(c node.Context, name string) {
	i := h.tr.enter(h.own)
	h.inner.OnTimer(h.ctx(c), name)
	h.tr.exit(i)
}

func (h *handlerShim) Accepts(from model.ProcID, p node.Payload) bool {
	g, ok := h.inner.(node.Gate)
	if !ok {
		return true
	}
	i := h.tr.enter(h.own)
	yes := g.Accepts(from, p)
	h.tr.exit(i)
	return yes
}

func (h *handlerShim) OnCrash(c node.Context) {
	if l, ok := h.inner.(node.CrashListener); ok {
		i := h.tr.enter(h.own)
		l.OnCrash(h.ctx(c))
		h.tr.exit(i)
	}
}

func (h *handlerShim) Snapshot() []byte {
	if r, ok := h.inner.(node.Restarter); ok {
		return r.Snapshot()
	}
	return nil
}

func (h *handlerShim) OnRestart(c node.Context, state []byte) {
	i := h.tr.enter(h.own)
	if r, ok := h.inner.(node.Restarter); ok {
		r.OnRestart(h.ctx(c), state)
	} else {
		h.inner.Init(h.ctx(c))
	}
	h.tr.exit(i)
}

// Inner lets the simulator walk through the shim to the byz endpoint's
// counters, as it walks through the reliable endpoint.
func (h *handlerShim) Inner() node.Handler { return h.inner }

// reliableShim is a handlerShim around a reliable endpoint: the simulator
// looks for ReliableStats on the outermost handler only, so the outermost
// shim must answer for the endpoint it hides — and only then, or a stack
// without the layer would grow reliable_* metrics.
type reliableShim struct {
	*handlerShim
	stats interface{ ReliableStats() (int, int) }
}

func (r reliableShim) ReliableStats() (int, int) { return r.stats.ReliableStats() }

// shim wraps inner for tracing; with a nil tracer it returns inner itself,
// so the untraced stack carries no harness code at all.
func shim(tr *tracer, inner node.Handler, own, host layer) node.Handler {
	if tr == nil {
		return inner
	}
	h := &handlerShim{inner: inner, tr: tr, own: own, host: host}
	if rs, ok := inner.(interface{ ReliableStats() (int, int) }); ok {
		return reliableShim{handlerShim: h, stats: rs}
	}
	return h
}

// ctxShim times the calls a layer makes back into its host. The read-only
// accessors (Self, N, Now) pass through untimed.
type ctxShim struct {
	node.Context
	tr   *tracer
	host layer
}

func (c *ctxShim) Send(to model.ProcID, p node.Payload) {
	i := c.tr.enter(c.host)
	c.Context.Send(to, p)
	c.tr.exit(i)
}

func (c *ctxShim) SetTimer(name string, delay int64) {
	i := c.tr.enter(c.host)
	c.Context.SetTimer(name, delay)
	c.tr.exit(i)
}

func (c *ctxShim) CancelTimer(name string) {
	i := c.tr.enter(c.host)
	c.Context.CancelTimer(name)
	c.tr.exit(i)
}

func (c *ctxShim) EmitFailed(j model.ProcID) {
	i := c.tr.enter(c.host)
	c.Context.EmitFailed(j)
	c.tr.exit(i)
}

func (c *ctxShim) CrashSelf() {
	i := c.tr.enter(c.host)
	c.Context.CrashSelf()
	c.tr.exit(i)
}

func (c *ctxShim) EmitInternal(tag string, subject model.ProcID) {
	i := c.tr.enter(c.host)
	c.Context.EmitInternal(tag, subject)
	c.tr.exit(i)
}

// hostCtx wraps the context an injected action receives, so that the calls
// it makes into the host are timed like a handler's.
func hostCtx(tr *tracer, c node.Context, host layer) node.Context {
	if tr == nil {
		return c
	}
	return &ctxShim{Context: c, tr: tr, host: host}
}

// componentShim times the fd component co-hosted inside a detector. The
// detector hands it the detector's own context, so its sends are already
// timed by the enclosing ctxShim; a suspicion it raises runs detector code
// inside the fd span and is charged to fd.
type componentShim struct {
	inner core.Component
	tr    *tracer
}

func (s *componentShim) Init(c node.Context, d *core.Detector) {
	i := s.tr.enter(layerFD)
	s.inner.Init(c, d)
	s.tr.exit(i)
}

func (s *componentShim) OnMessage(c node.Context, d *core.Detector, from model.ProcID, p node.Payload) {
	i := s.tr.enter(layerFD)
	s.inner.OnMessage(c, d, from, p)
	s.tr.exit(i)
}

func (s *componentShim) OnTimer(c node.Context, d *core.Detector, name string) {
	i := s.tr.enter(layerFD)
	s.inner.OnTimer(c, d, name)
	s.tr.exit(i)
}

// linkShim times the fault plane's decision, which the simulator calls from
// inside its own Send.
func linkShim(tr *tracer, decide node.LinkFn) node.LinkFn {
	if tr == nil || decide == nil {
		return decide
	}
	return func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
		i := tr.enter(layerNetadv)
		d := decide(from, to, p, at)
		tr.exit(i)
		return d
	}
}

// timed runs fn as a span of layer l; with a nil tracer it just runs fn.
func timed(tr *tracer, l layer, fn func()) {
	if tr == nil {
		fn()
		return
	}
	i := tr.enter(l)
	fn()
	tr.exit(i)
}
