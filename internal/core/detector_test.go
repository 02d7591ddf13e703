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
// — allocates the Detector, then at its first round storage for T rounds and
// T sender sets: 3, where growing the table and making a set a round took 7
// and the four maps 15. A cluster's 20 detectors, each doing the same, share
// three allocations: the detector array and the two blocks their first
// storage is carved from.
func TestDetectorAllocBudget(t *testing.T) {
	const n, tol = 20, 3
	ctx := &quietCtx{self: 1, n: n}
	detect := func(d *Detector) {
		ctx.self = d.self
		for j := model.ProcID(18); j <= n; j++ {
			d.Suspect(ctx, j)
			for from := model.ProcID(1); !d.Detected(j); from++ {
				d.OnMessage(ctx, from, node.Payload{Tag: TagSusp, Subject: j})
			}
		}
	}
	var d *Detector
	allocs := testing.AllocsPerRun(100, func() {
		d = NewDetector(Config{N: n, T: tol}, nil, nil)
		ctx.self = 1
		d.Init(ctx)
		detect(d)
	})
	if got := len(d.DetectedSet()); got != tol {
		t.Fatalf("detected %d targets, want %d", got, tol)
	}
	if allocs > 3 {
		t.Errorf("detector allocates %.0f times for %d detections at n=%d, budget 3", allocs, tol, n)
	}
	if one := testing.AllocsPerRun(100, func() { d = NewDetector(Config{N: n, T: tol}, nil, nil) }); one != 1 {
		t.Errorf("NewDetector allocates %.0f times, want 1", one)
	}

	none := func(model.ProcID) (Component, App) { return nil, nil }
	var dets []Detector
	allocs = testing.AllocsPerRun(100, func() {
		dets = NewDetectors(Config{N: n, T: tol}, none)
		for i := range dets[:n-tol] {
			ctx.self = model.ProcID(i + 1)
			dets[i].Init(ctx)
			detect(&dets[i])
		}
	})
	if got := len(dets[0].DetectedSet()); got != tol {
		t.Fatalf("a cluster's detector detected %d targets, want %d", got, tol)
	}
	if allocs != 3 {
		t.Errorf("a cluster's %d detectors allocate %.0f times for %d detections each, want 3", n-tol, allocs, tol)
	}
}

// TestCarvedStorageStaysApart: detectors whose first storage is carved from
// one block keep to their own part of it. At T = 1 each detector's part
// holds one round: process 1 opens four, growing its storage, while process
// 2, carved right after it, opens one — and each snapshot shows only its own
// detector's rounds and senders.
func TestCarvedStorageStaysApart(t *testing.T) {
	const n = 6
	dets := NewDetectors(Config{N: n, T: 1, Protocol: Cheap}, func(model.ProcID) (Component, App) { return nil, nil })
	for i := range dets {
		if got := cap(dets[i].rounds); got != 1 {
			t.Fatalf("detector %d carved room for %d rounds, want T = 1", i+1, got)
		}
	}
	one, two := &dets[0], &dets[1]
	ctx1, ctx2 := &quietCtx{self: 1, n: n}, &quietCtx{self: 2, n: n}
	one.Init(ctx1)
	two.Init(ctx2)
	two.Suspect(ctx2, 3)
	for j := model.ProcID(6); j >= 3; j-- {
		one.Suspect(ctx1, j)
	}
	if got, want := string(one.Snapshot()), `{"suspected":[3,4,5,6],"detected":[3,4,5,6],"counts":[{"target":3,"senders":[1]},{"target":4,"senders":[1]},{"target":5,"senders":[1]},{"target":6,"senders":[1]}],"quorums":[{"target":3,"senders":[1]},{"target":4,"senders":[1]},{"target":5,"senders":[1]},{"target":6,"senders":[1]}]}`; got != want {
		t.Errorf("process 1 snapshot %s, want %s", got, want)
	}
	if got, want := string(two.Snapshot()), `{"suspected":[3],"detected":[3],"counts":[{"target":3,"senders":[2]}],"quorums":[{"target":3,"senders":[2]}]}`; got != want {
		t.Errorf("process 2 snapshot %s, want %s", got, want)
	}
}

// TestFirstStorageSize: a cluster carves each detector room for
// min(T, N-1, 16) rounds and for their sender sets as far as they fit 64
// words, at least one set — and no sets at all once one set is over 64
// words; a lone detector's first round makes the same room.
func TestFirstStorageSize(t *testing.T) {
	none := func(model.ProcID) (Component, App) { return nil, nil }
	for _, tc := range []struct {
		n, t          int
		rounds, words int // carved
		lone          int // words a lone detector's first round makes room for
	}{
		{20, 3, 3, 3, 3},
		{5, 9, 4, 4, 4},
		{100, 40, 16, 32, 32},
		{1000, 3, 3, 48, 48},
		{3000, 3, 3, 47, 47},
		{5000, 3, 3, 0, 79},
	} {
		dets := NewDetectors(Config{N: tc.n, T: tc.t}, none)
		for i := range dets {
			if r, w := cap(dets[i].rounds), cap(dets[i].sets); r != tc.rounds || w != tc.words {
				t.Fatalf("N=%d T=%d: detector %d carved %d rounds and %d set words, want %d and %d", tc.n, tc.t, i+1, r, w, tc.rounds, tc.words)
			}
		}
		d := NewDetector(Config{N: tc.n, T: tc.t}, nil, nil)
		ctx := &quietCtx{self: 1, n: tc.n}
		d.Init(ctx)
		d.Suspect(ctx, 2)
		if r, w := cap(d.rounds), cap(d.sets); r != tc.rounds || w != tc.lone {
			t.Errorf("N=%d T=%d: a lone detector's first round made room for %d rounds and %d set words, want %d and %d", tc.n, tc.t, r, w, tc.rounds, tc.lone)
		}
	}
}
