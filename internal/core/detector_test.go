package core

import (
	"bytes"
	"math"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
)

// quietCtx hosts a detector whose events nobody reads.
type quietCtx struct {
	node.Context
	self model.ProcID
	n    int
}

func (c *quietCtx) Self() model.ProcID                { return c.self }
func (c *quietCtx) N() int                            { return c.n }
func (c *quietCtx) Send(model.ProcID, node.Payload)   {}
func (c *quietCtx) EmitFailed(model.ProcID)           {}
func (c *quietCtx) CrashSelf()                        {}
func (c *quietCtx) EmitInternal(string, model.ProcID) {}

// TestNamesNoProcess: a suspicion, a "j failed" and a restored round whose j
// is no process's id open no round — under the maps a "0 failed" off the wire
// left a sender set no detection could ever close, which gated that sender's
// application traffic for good.
func TestNamesNoProcess(t *testing.T) {
	for _, proto := range []Protocol{SimulatedFailStop, Cheap, Unilateral} {
		d := NewDetector(Config{N: 5, T: 2, Protocol: proto}, nil, nil)
		ctx := &scriptCtx{self: 2, n: 5}
		d.Init(ctx)
		for _, j := range []model.ProcID{-3, model.None, 6, 9, math.MaxInt32} {
			d.Suspect(ctx, j)
			d.OnMessage(ctx, 4, node.Payload{Tag: TagSusp, Subject: j})
			if d.Suspects(j) || d.Detected(j) {
				t.Errorf("%v: a round is open for %d", proto, j)
			}
		}
		if len(ctx.log) != 0 || len(d.rounds) != 0 || !d.Accepts(4, node.Payload{Tag: TagApp}) {
			t.Errorf("%v: ids naming nobody left events %q, %d rounds, Accepts(4) = %v",
				proto, ctx.log, len(d.rounds), d.Accepts(4, node.Payload{Tag: TagApp}))
		}
	}

	d := NewDetector(Config{N: 5, T: 2}, nil, nil)
	d.OnRestart(&scriptCtx{self: 2, n: 5}, []byte(`{"suspected":[0,2,3,9],"detected":[-1,2,6],`+
		`"counts":[{"target":9,"senders":[1]},{"target":2,"senders":[1]},{"target":3,"senders":[1,7]}],`+
		`"quorums":[{"target":-4,"senders":[-4]},{"target":4,"senders":[-1,5]}]}`))
	if got, want := string(d.Snapshot()), `{"suspected":[3],"counts":[{"target":3,"senders":[1]},{"target":4,"senders":[5]}]}`; got != want {
		t.Errorf("hostile snapshot restored as %s, want %s", got, want)
	}
}

// FuzzDetectorOnRestart: whatever bytes storage hands back, OnRestart must
// not panic, every round it restores is about another process, the restored
// state's snapshot restores to itself, and the detector still runs.
func FuzzDetectorOnRestart(f *testing.F) {
	f.Add([]byte(`{"suspected":[1,4],"detected":[1],"counts":[{"target":1,"senders":[2,3,5]},{"target":4,"senders":[2]}],"quorums":[{"target":1,"senders":[2,3,5]}]}`))
	f.Add([]byte(`{"suspected":[1],"detected":[1],"quorums":[{"target":1,"senders":[2]}]}`))
	f.Add([]byte(`{"suspected":[3],"counts":[{"target":3,"senders":[-7,2,4,99999]}]}`))
	f.Add([]byte(`{"suspected":[0,2,9],"detected":[-9223372036854775808,2,6],"quorums":[{"target":-1,"senders":[-1]},{"target":3,"senders":[]}]}`))
	f.Add([]byte(`{"suspected":"all"}`))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, state []byte) {
		for _, proto := range []Protocol{SimulatedFailStop, Cheap} {
			cfg := Config{N: 5, T: 2, Protocol: proto}
			ctx := &quietCtx{self: 2, n: 5}
			d := NewDetector(cfg, nil, nil)
			d.OnRestart(ctx, state)
			for _, r := range d.rounds {
				if !d.names(r.target) || r.target == 2 {
					t.Fatalf("restored a round about %d", r.target)
				}
			}
			snap := d.Snapshot()
			again := NewDetector(cfg, nil, nil)
			again.OnRestart(ctx, snap)
			if got := again.Snapshot(); !bytes.Equal(got, snap) {
				t.Fatalf("restored state %s restores to %s", snap, got)
			}
			d.Suspect(ctx, 4)
			for from := model.ProcID(1); from <= 5; from++ {
				d.OnMessage(ctx, from, node.Payload{Tag: TagSusp, Subject: 4})
				d.OnMessage(ctx, from, node.Payload{Tag: TagSusp, Subject: 5})
				d.Accepts(from, node.Payload{Tag: TagApp})
			}
			// (A baseline detects as it suspects: a round restored open stays open.)
			if d.Quorums(); proto == SimulatedFailStop && !(d.Detected(4) && d.Detected(5)) {
				t.Fatalf("restored detector did not run: detected %v", d.DetectedSet())
			}
		}
	})
}

// TestDetectorAllocBudget: one process's whole §5 layer at n = 20 — built,
// t = 3 targets suspected, each counted up to Theorem 7's quorum and detected
// — allocates the Detector, the table's three growths and one sender set a
// round: 7, where the four maps took 15.
func TestDetectorAllocBudget(t *testing.T) {
	const n, tol = 20, 3
	ctx := &quietCtx{self: 1, n: n}
	var d *Detector
	allocs := testing.AllocsPerRun(100, func() {
		d = NewDetector(Config{N: n, T: tol}, nil, nil)
		d.Init(ctx)
		for j := model.ProcID(18); j <= n; j++ {
			d.Suspect(ctx, j)
			for from := model.ProcID(2); !d.Detected(j); from++ {
				d.OnMessage(ctx, from, node.Payload{Tag: TagSusp, Subject: j})
			}
		}
	})
	if got := len(d.DetectedSet()); got != tol {
		t.Fatalf("detected %d targets, want %d", got, tol)
	}
	if allocs > 7*1.1 {
		t.Errorf("detector allocates %.0f times for %d detections at n=%d, budget 7 + 10%%", allocs, tol, n)
	}
	if one := testing.AllocsPerRun(100, func() { d = NewDetector(Config{N: n, T: tol}, nil, nil) }); one != 1 {
		t.Errorf("NewDetector allocates %.0f times, want 1", one)
	}
}
