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

// stampSender is an interposer's SendThrough: it sends on the host it is
// handed, with its own tag.
type stampSender struct{}

func (stampSender) SendThrough(host Context, to model.ProcID, p Payload) {
	host.Send(to, Payload{Tag: "L." + p.Tag})
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
