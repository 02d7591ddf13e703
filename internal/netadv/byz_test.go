package netadv

import (
	"strings"
	"testing"

	"failstop/internal/byz"
	"failstop/internal/model"
	"failstop/internal/node"
)

func TestByzRuleValidate(t *testing.T) {
	valid := func(mut func(*ByzRule)) Plan {
		b := ByzRule{Victim: 1, From: 10, Until: 100, Tags: []string{"SUSP"}, Corrupt: 0.5}
		if mut != nil {
			mut(&b)
		}
		return Plan{Name: "p", Byz: []ByzRule{b}}
	}
	cases := []struct {
		name string
		plan Plan
		want string // substring of the error; "" means valid
	}{
		{"valid corrupt", valid(nil), ""},
		{"valid equivocate", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Equivocate = [][]model.ProcID{{2, 3}, {4, 5}}
		}), ""},
		{"valid replay", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Replay = 1
			b.ReplayDelay = 200
		}), ""},
		{"victim zero", valid(func(b *ByzRule) { b.Victim = 0 }), "victim 0 outside 1..5"},
		{"victim beyond n", valid(func(b *ByzRule) { b.Victim = 6 }), "victim 6 outside 1..5"},
		{"negative from", valid(func(b *ByzRule) { b.From = -1 }), "negative From"},
		{"until before from", valid(func(b *ByzRule) { b.Until = 5 }), "Until 5 not after From 10"},
		{"corrupt above one", valid(func(b *ByzRule) { b.Corrupt = 1.5 }), "outside [0,1]"},
		{"negative replay", valid(func(b *ByzRule) { b.Replay = -0.1 }), "outside [0,1]"},
		{"negative replay delay", valid(func(b *ByzRule) {
			b.Replay = 1
			b.ReplayDelay = -3
		}), "negative ReplayDelay"},
		{"replay delay without replay", valid(func(b *ByzRule) { b.ReplayDelay = 50 }), "ReplayDelay 50 without Replay"},
		{"no effect", valid(func(b *ByzRule) { b.Corrupt = 0 }), "no effect"},
		{"empty tag", valid(func(b *ByzRule) { b.Tags = []string{""} }), "empty tag never matches"},
		{"duplicate tag", valid(func(b *ByzRule) { b.Tags = []string{"SUSP", "SUSP"} }), `duplicate tag "SUSP"`},
		{"single equivocation group", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Equivocate = [][]model.ProcID{{2, 3}}
		}), "at least 2 groups"},
		{"empty equivocation group", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Equivocate = [][]model.ProcID{{2}, {}}
		}), "group 1 is empty"},
		{"group member outside range", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Equivocate = [][]model.ProcID{{2}, {9}}
		}), "process 9 outside 1..5"},
		{"victim in own group", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Equivocate = [][]model.ProcID{{2}, {1}}
		}), "cannot be its own receiver group member"},
		{"member twice in one group", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Equivocate = [][]model.ProcID{{2, 2}, {3}}
		}), "listed twice in equivocation group 0"},
		{"member in two groups", valid(func(b *ByzRule) {
			b.Corrupt = 0
			b.Equivocate = [][]model.ProcID{{2}, {3, 2}}
		}), "in both equivocation group 0 and group 1"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.plan.Validate(5)
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

// TestByzRuleInsideUnconditionalCutRejected: a Byzantine window fully
// covered by a permanent all-link cut can never put a forged frame on the
// wire, so Validate refuses the dead combination.
func TestByzRuleInsideUnconditionalCutRejected(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"window inside forever cut", Plan{Name: "dead", Rules: []Rule{
			{Cut: true},
		}, Byz: []ByzRule{
			{Victim: 1, From: 10, Corrupt: 1},
		}}, "can never fire"},
		{"window inside bounded cut", Plan{Name: "dead2", Rules: []Rule{
			{Cut: true, From: 0, Until: 500},
		}, Byz: []ByzRule{
			{Victim: 1, From: 10, Until: 100, Corrupt: 1},
		}}, "can never fire"},
		{"tagged cut covers byz tags", Plan{Name: "dead3", Rules: []Rule{
			{Cut: true, Tags: []string{"SUSP", "HB"}},
		}, Byz: []ByzRule{
			{Victim: 1, Tags: []string{"SUSP"}, Corrupt: 1},
		}}, "can never fire"},
		{"byz outlives the cut", Plan{Name: "alive", Rules: []Rule{
			{Cut: true, From: 0, Until: 100},
		}, Byz: []ByzRule{
			{Victim: 1, From: 10, Corrupt: 1},
		}}, ""},
		{"cut misses the byz tag", Plan{Name: "alive2", Rules: []Rule{
			{Cut: true, Tags: []string{"HB"}},
		}, Byz: []ByzRule{
			{Victim: 1, Tags: []string{"SUSP"}, Corrupt: 1},
		}}, ""},
		{"periodic cut leaves gaps", Plan{Name: "alive3", Rules: []Rule{
			{Cut: true, Period: 100, ActiveFor: 50},
		}, Byz: []ByzRule{
			{Victim: 1, Corrupt: 1},
		}}, ""},
		{"partial-link cut leaks", Plan{Name: "alive4", Rules: []Rule{
			{Cut: true, Links: LinkSet{Pairs: []Link{{From: 1, To: 2}}}},
		}, Byz: []ByzRule{
			{Victim: 1, Corrupt: 1},
		}}, ""},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.plan.Validate(5)
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

// TestByzFatesDeterministic: the same plan and seed assign identical
// Byzantine fates; the fate of message k depends only on (rule, link, k).
func TestByzFatesDeterministic(t *testing.T) {
	plan := Plan{Name: "b", Byz: []ByzRule{{Victim: 1, Corrupt: 0.5, Replay: 0.5}}}
	run := func() []string {
		pl := NewPlane(plan, 5, 42)
		var fates []string
		for i := 0; i < 50; i++ {
			dec := pl.Decide(1, 2, node.Payload{Tag: "SUSP", Subject: 3}, int64(i))
			fates = append(fates, dec.Note())
		}
		return fates
	}
	a, b := run(), run()
	mutated := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fate %d diverged across identical runs: %q vs %q", i, a[i], b[i])
		}
		if a[i] != "" {
			mutated = true
		}
	}
	if !mutated {
		t.Error("Corrupt=0.5 over 50 messages forged nothing")
	}
}

// TestByzStreamNeutral: adding Byzantine rules to a plan must not shift the
// fates its network rules assign — the Byzantine stream is separate.
func TestByzStreamNeutral(t *testing.T) {
	rules := []Rule{{Drop: 0.3, Duplicate: 0.3, JitterMax: 9}}
	bare := NewPlane(Plan{Name: "bare", Rules: rules}, 5, 7)
	withByz := NewPlane(Plan{
		Name:  "with-byz",
		Rules: rules,
		Byz:   []ByzRule{{Victim: 1, Corrupt: 1}},
	}, 5, 7)
	for i := 0; i < 200; i++ {
		a := bare.Decide(1, 2, node.Payload{Tag: "SUSP", Subject: 3}, int64(i))
		b := withByz.Decide(1, 2, node.Payload{Tag: "SUSP", Subject: 3}, int64(i))
		if a.Drop != b.Drop || a.Duplicates != b.Duplicates || a.ExtraDelay != b.ExtraDelay || a.Reorder != b.Reorder {
			t.Fatalf("message %d: network fate shifted by the byz rule: %+v vs %+v", i, a, b)
		}
	}
}

// TestByzWindowAndSelectors: outside its window, for other senders, and for
// unlisted tags the rule leaves traffic alone.
func TestByzWindowAndSelectors(t *testing.T) {
	pl := NewPlane(Plan{Name: "w", Byz: []ByzRule{
		{Victim: 1, From: 100, Until: 200, Tags: []string{"SUSP"}, Corrupt: 1},
	}}, 5, 1)
	cases := []struct {
		name   string
		from   model.ProcID
		tag    string
		at     int64
		forged bool
	}{
		{"inside window", 1, "SUSP", 150, true},
		{"before window", 1, "SUSP", 50, false},
		{"at until", 1, "SUSP", 200, false},
		{"other sender", 2, "SUSP", 150, false},
		{"other tag", 1, "HB", 150, false},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			dec := pl.Decide(tt.from, 2, node.Payload{Tag: tt.tag, Subject: 3}, tt.at)
			if got := dec.Replace != nil; got != tt.forged {
				t.Errorf("forged = %v, want %v", got, tt.forged)
			}
		})
	}
}

// TestCorruptBreaksTheSeal: the corrupt mutation of a sealed frame leaves
// the MAC stale, and the equivocation variants reseal so each authenticates
// — the division of labor between MAC checks and echo quorums.
func TestCorruptBreaksTheSeal(t *testing.T) {
	seal := func(subject model.ProcID) node.Payload {
		p := node.Payload{Tag: "SUSP", Subject: subject, Data: []byte(`{"s":1}`)}
		// Reproduce the byz layer's sealing via its exported test seam: an
		// endpoint is heavyweight here, so seal through Reseal on a template
		// frame built by the layer itself.
		e := byz.Wrap(nopHandler{}, byz.Options{Enabled: true})
		ctx := &sealCtx{n: 5}
		e.Init(ctx)
		e.Context(ctx).Send(2, p)
		return node.Payload{Tag: p.Tag, Subject: p.Subject, Data: ctx.last}
	}

	corruptPl := NewPlane(Plan{Name: "c", Byz: []ByzRule{{Victim: 1, Corrupt: 1}}}, 5, 1)
	sealed := seal(3)
	dec := corruptPl.Decide(1, 2, sealed, 10)
	if dec.Replace == nil {
		t.Fatal("corrupt rule forged nothing")
	}
	if authenticates(dec.Replace.Payload) {
		t.Error("corrupted frame still authenticates; corruption must break the MAC")
	}

	equivPl := NewPlane(Plan{Name: "e", Byz: []ByzRule{
		{Victim: 1, Equivocate: [][]model.ProcID{{2}, {3}}},
	}}, 5, 1)
	dec = equivPl.Decide(1, 3, seal(3), 10)
	if dec.Replace == nil {
		t.Fatal("equivocation rule forged nothing for a group-1 receiver")
	}
	if !authenticates(dec.Replace.Payload) {
		t.Error("equivocated variant does not authenticate; the sender must sign its own lies")
	}
	if dec.Replace.Payload.Subject == sealed.Subject {
		t.Error("equivocated variant carries the original subject")
	}
}

type nopHandler struct{}

func (nopHandler) Init(node.Context)                                  {}
func (nopHandler) OnMessage(node.Context, model.ProcID, node.Payload) {}
func (nopHandler) OnTimer(node.Context, string)                       {}

// sealCtx captures the last sealed wire body an endpoint sends.
type sealCtx struct {
	n    int
	last []byte
}

func (c *sealCtx) Self() model.ProcID                  { return 1 }
func (c *sealCtx) N() int                              { return c.n }
func (c *sealCtx) Now() int64                          { return 0 }
func (c *sealCtx) Send(_ model.ProcID, p node.Payload) { c.last = p.Data }
func (c *sealCtx) SetTimer(string, int64)              {}
func (c *sealCtx) CancelTimer(string)                  {}
func (c *sealCtx) EmitFailed(model.ProcID)             {}
func (c *sealCtx) CrashSelf()                          {}
func (c *sealCtx) EmitInternal(string, model.ProcID)   {}

// authenticates checks a forged frame as receiver-side code would: a fresh
// endpoint takes it in (a SUSP frame is held for its witness quorum, after
// the MAC check that convicts a forgery), and the frame passes iff no
// conviction fires.
func authenticates(p node.Payload) bool {
	rec := &convictRec{}
	e := byz.Wrap(nopHandler{}, byz.Options{Enabled: true})
	e.SetConvict(rec.convict)
	ctx := &sealCtx{n: 5}
	e.Init(ctx)
	e.OnMessage(ctx, 1, p)
	return !rec.convicted
}

type convictRec struct{ convicted bool }

func (r *convictRec) convict(node.Context, model.ProcID) { r.convicted = true }

// TestBuiltinByzantineMinority: the builtin instantiates a minority of
// forging victims across the grid, mixing equivocation+replay with plain
// corruption, and validates everywhere.
func TestBuiltinByzantineMinority(t *testing.T) {
	gen, ok := Builtin("byzantine-minority")
	if !ok {
		t.Fatal("byzantine-minority not registered")
	}
	for _, g := range []struct{ n, t int }{{2, 0}, {3, 1}, {5, 2}, {10, 3}} {
		plan := gen.Make(g.n, g.t)
		if err := plan.Validate(g.n); err != nil {
			t.Errorf("n=%d t=%d: %v", g.n, g.t, err)
		}
		want := g.t
		if want == 0 {
			want = 1
		}
		if len(plan.Byz) != want {
			t.Errorf("n=%d t=%d: %d byz rules, want %d (a minority of forgers)", g.n, g.t, len(plan.Byz), want)
		}
	}
}
