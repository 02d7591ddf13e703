package node

import (
	"slices"
	"strconv"
	"testing"

	"failstop/internal/model"
)

// hostCtx is a host's context for process self: it records each send as
// "<to>:<tag>". Only the methods a layer reaches are implemented.
type hostCtx struct {
	Context
	self  model.ProcID
	sends []string
}

func (c *hostCtx) Self() model.ProcID { return c.self }
func (c *hostCtx) Send(to model.ProcID, p Payload) {
	c.sends = append(c.sends, strconv.Itoa(int(to))+":"+p.Tag)
}

// payloadCtx is a host's context that keeps the last payload sent on it, as
// it was handed over. Only Send is implemented.
type payloadCtx struct {
	Context
	sent Payload
}

func (c *payloadCtx) Send(_ model.ProcID, p Payload) { c.sent = p }

// stampSender is an interposer's SendThrough: it sends on the host it is
// handed, with its own tag.
type stampSender struct{}

func (stampSender) SendThrough(host Context, to model.ProcID, p Payload) {
	host.Send(to, Payload{Tag: "L." + p.Tag})
}

// countingSender is a stampSender that counts the sends handed to it.
type countingSender struct {
	stampSender
	calls int
}

func (s *countingSender) SendThrough(host Context, to model.ProcID, p Payload) {
	s.calls++
	s.stampSender.SendThrough(host, to, p)
}

// initCounter is a handler with none of the optional interfaces.
type initCounter struct {
	bareHandler
	inits int
}

func (h *initCounter) Init(Context) { h.inits++ }

// restarter is a handler with a Restarter: it keeps the state it was
// restarted with.
type restarter struct {
	initCounter
	state []byte
}

func (r *restarter) Snapshot() []byte                  { return []byte("snap") }
func (r *restarter) OnRestart(_ Context, state []byte) { r.state = state }

// TestLayer pins the shell an interposer embeds and the four functions that
// ask a handler's optional interfaces.
func TestLayer(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"context sends through SendThrough on the host last bound", func(t *testing.T) {
			var l Layer
			l.Wrap(bareHandler{}, stampSender{})
			a, b := &hostCtx{self: 1}, &hostCtx{self: 1}
			l.Context(a).Send(2, Payload{Tag: "APP"})
			ctx := l.Context(b)
			ctx.Send(3, Payload{Tag: "APP"})
			if !slices.Equal(a.sends, []string{"2:L.APP"}) || !slices.Equal(b.sends, []string{"3:L.APP"}) {
				t.Errorf("sends: first host %v, second %v; want [2:L.APP] and [3:L.APP]", a.sends, b.sends)
			}
			if ctx.Self() != 1 || l.Context(a) != ctx {
				t.Error("the layer's context does not forward to its host, or is not its one wrapper")
			}
		}},
		{"a heartbeat bypasses both of two nested layers", func(t *testing.T) {
			var outer, inner Layer
			outS, inS := &countingSender{}, &countingSender{}
			outer.Wrap(bareHandler{}, outS)
			inner.Wrap(bareHandler{}, inS)
			host := &payloadCtx{}
			ctx := inner.Context(outer.Context(host))
			hb := Payload{Tag: TagHeartbeat, Subject: 3, Data: []byte("beat")}
			ctx.Send(2, hb)
			if outS.calls != 0 || inS.calls != 0 {
				t.Errorf("SendThrough called %d times outside and %d inside, want 0 and 0", outS.calls, inS.calls)
			}
			if got := host.sent; got.Tag != hb.Tag || got.Subject != hb.Subject || len(got.Data) != 4 || &got.Data[0] != &hb.Data[0] {
				t.Errorf("host got %+v, want the heartbeat as sent", got)
			}
			ctx.Send(2, Payload{Tag: "APP"})
			if outS.calls != 1 || inS.calls != 1 || host.sent.Tag != "L.L.APP" {
				t.Errorf("an APP send reached the host as %q after %d and %d SendThrough calls, want L.L.APP after 1 and 1", host.sent.Tag, outS.calls, inS.calls)
			}
		}},
		{"Init and Restart without a Restarter both initialise", func(t *testing.T) {
			h := &initCounter{}
			var l Layer
			l.Wrap(h, stampSender{})
			l.Init(&hostCtx{self: 1})
			Restart(h, &hostCtx{self: 1}, []byte("ignored"))
			if h.inits != 2 {
				t.Errorf("%d inits, want 2", h.inits)
			}
			if l.Inner() != Handler(h) {
				t.Error("Inner is not the wrapped handler")
			}
		}},
		{"Restart hands a Restarter its state", func(t *testing.T) {
			r := &restarter{}
			Restart(r, &hostCtx{self: 1}, []byte("s"))
			if string(r.state) != "s" || r.inits != 0 {
				t.Errorf("state %q and %d inits, want \"s\" and 0", r.state, r.inits)
			}
		}},
		{"Accepts is true without a gate", func(t *testing.T) {
			if !Accepts(bareHandler{}, 1, Payload{}) {
				t.Error("a handler without a gate refused")
			}
			if Accepts(&fakeHandler{accepts: false}, 1, Payload{}) {
				t.Error("a gate's refusal was lost")
			}
		}},
		{"Snapshot is nil without a Restarter", func(t *testing.T) {
			if s := Snapshot(bareHandler{}); s != nil {
				t.Errorf("snapshot %q, want nil", s)
			}
			if s := Snapshot(&restarter{}); string(s) != "snap" {
				t.Errorf("snapshot %q, want \"snap\"", s)
			}
		}},
		{"Crashed reaches only a CrashListener", func(t *testing.T) {
			lis := &fakeHandler{}
			Crashed(lis, &hostCtx{self: 1})
			Crashed(&initCounter{}, &hostCtx{self: 1}) // nothing to call
			var l Layer
			l.Wrap(lis, stampSender{})
			l.OnCrash(&hostCtx{self: 1})
			if lis.crashes != 2 {
				t.Errorf("%d crashes announced, want 2", lis.crashes)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}
