package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoProcExchange is a small valid history used by several tests:
// 1 sends m1 to 2, 2 receives it, 2 detects 1, 1 crashes.
func twoProcExchange() History {
	return History{
		Send(1, 2, 1, "APP", None),
		Recv(2, 1, 1, "APP", None),
		Failed(2, 1),
		Crash(1),
	}.Normalize()
}

func TestValidateAcceptsValidHistories(t *testing.T) {
	tests := []struct {
		name string
		h    History
	}{
		{"empty", History{}},
		{"exchange", twoProcExchange()},
		{"fifo pair", History{
			Send(1, 2, 1, "a", None),
			Send(1, 2, 2, "b", None),
			Recv(2, 1, 1, "a", None),
			Recv(2, 1, 2, "b", None),
		}},
		{"unreceived send", History{Send(1, 2, 1, "a", None)}},
		{"lost message skipped in FIFO order", History{
			Send(1, 2, 1, "a", None),
			Send(1, 2, 2, "b", None),
			Send(1, 2, 3, "c", None),
			Recv(2, 1, 2, "b", None), // m1 lost; later sends still in order
			Recv(2, 1, 3, "c", None),
		}},
		{"interleaved channels", History{
			Send(1, 2, 1, "a", None),
			Send(2, 1, 2, "b", None),
			Recv(1, 2, 2, "b", None),
			Recv(2, 1, 1, "a", None),
		}},
		{"crash then others continue", History{
			Crash(1),
			Send(2, 3, 1, "a", None),
			Recv(3, 2, 1, "a", None),
			Failed(2, 1),
			Failed(3, 1),
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.h.Validate(); err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
		})
	}
}

func TestValidateRejectsInvalidHistories(t *testing.T) {
	tests := []struct {
		name string
		h    History
		rule string
	}{
		{"no actor", History{{Kind: KindCrash}}, "actor"},
		{"bad kind", History{{Proc: 1}}, "kind"},
		{"negative actor", History{{Proc: -1, Kind: KindCrash}}, "proc-id"},
		{"negative target", History{Failed(1, -2)}, "proc-id"},
		{"negative peer", History{Send(1, -3, 1, "a", None)}, "proc-id"},
		{"recv before send", History{Recv(2, 1, 1, "a", None)}, "recv-before-send"},
		{"duplicate send", History{
			Send(1, 2, 1, "a", None),
			Send(1, 3, 1, "a", None),
		}, "unique-msg"},
		{"duplicate recv", History{
			Send(1, 2, 1, "a", None),
			Recv(2, 1, 1, "a", None),
			Recv(2, 1, 1, "a", None),
		}, "unique-recv"},
		{"wrong channel", History{
			Send(1, 2, 1, "a", None),
			Recv(3, 1, 1, "a", None),
		}, "channel"},
		{"garbled payload", History{
			Send(1, 2, 1, "a", None),
			Recv(2, 1, 1, "b", None),
		}, "garble"},
		{"fifo violation", History{
			Send(1, 2, 1, "a", None),
			Send(1, 2, 2, "b", None),
			Recv(2, 1, 2, "b", None),
			Recv(2, 1, 1, "a", None), // m1 overtaken by m2: reorder
		}, "fifo"},
		{"event after crash", History{
			Crash(1),
			Send(1, 2, 1, "a", None),
		}, "crash-finality"},
		{"double crash", History{
			Crash(1),
			Crash(1),
		}, "crash-finality"},
		{"double detection", History{
			Failed(1, 2),
			Failed(1, 2),
		}, "failed-once"},
		{"failed without target", History{{Proc: 1, Kind: KindFailed}}, "failed"},
		{"send without dest", History{{Proc: 1, Kind: KindSend, Msg: 1}}, "send"},
		{"send without msg", History{{Proc: 1, Kind: KindSend, Peer: 2}}, "send"},
		{"recv without msg", History{{Proc: 1, Kind: KindRecv, Peer: 2}}, "recv"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.h.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !errors.Is(err, ErrInvalidHistory) {
				t.Errorf("error %v does not wrap ErrInvalidHistory", err)
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error %v does not wrap *ValidationError", err)
			}
			if verr.Rule != tt.rule {
				t.Errorf("rule = %q, want %q (err: %v)", verr.Rule, tt.rule, err)
			}
		})
	}
}

// TestValidateUnderByz: the three wire-level deviations a scripted
// Byzantine sender produces are tolerated (and counted) for victims, and
// still rejected for everyone else.
func TestValidateUnderByz(t *testing.T) {
	victims := map[ProcID]bool{3: true}
	tests := []struct {
		name     string
		h        History
		tampered int    // want, when valid
		rule     string // want rejection, when not
	}{
		{name: "garble from victim", h: History{
			Send(3, 2, 1, "a", None),
			Recv(2, 3, 1, "b", None),
		}, tampered: 1},
		{name: "garble from honest sender", h: History{
			Send(1, 2, 1, "a", None),
			Recv(2, 1, 1, "b", None),
		}, rule: "garble"},
		{name: "replay ghost from victim", h: History{
			Send(3, 2, 1, "a", None),
			Recv(2, 3, 1, "a", None),
			Recv(2, 3, 1, "a", None),
		}, tampered: 1},
		{name: "replay ghost from honest sender", h: History{
			Send(1, 2, 1, "a", None),
			Recv(2, 1, 1, "a", None),
			Recv(2, 1, 1, "a", None),
		}, rule: "unique-recv"},
		{name: "stale ghost behind the cursor", h: History{
			Send(3, 2, 1, "a", None),
			Send(3, 2, 2, "b", None),
			Recv(2, 3, 2, "b", None), // m1's original lost; cursor passes it
			Recv(2, 3, 1, "a", None), // ghost of m1 lands late
		}, tampered: 1},
		{name: "fifo violation from honest sender", h: History{
			Send(1, 2, 1, "a", None),
			Send(1, 2, 2, "b", None),
			Recv(2, 1, 2, "b", None),
			Recv(2, 1, 1, "a", None),
		}, rule: "fifo"},
		{name: "clean history counts zero", h: twoProcExchange(), tampered: 0},
		{name: "non-wire rules still enforced for victims", h: History{
			Crash(3),
			Send(3, 2, 1, "a", None),
		}, rule: "crash-finality"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tampered, err := tt.h.Normalize().ValidateUnderByz(victims)
			if tt.rule == "" {
				if err != nil {
					t.Fatalf("ValidateUnderByz() = %v, want nil", err)
				}
				if tampered != tt.tampered {
					t.Errorf("tampered = %d, want %d", tampered, tt.tampered)
				}
				return
			}
			var verr *ValidationError
			if !errors.As(err, &verr) || verr.Rule != tt.rule {
				t.Errorf("err = %v, want rule %q", err, tt.rule)
			}
		})
	}
}

func TestValidationErrorFormat(t *testing.T) {
	e := &ValidationError{Index: 3, Rule: "fifo", Desc: "boom"}
	if got := e.Error(); got != "invalid history at event 3: fifo: boom" {
		t.Errorf("Error() = %q", got)
	}
	e2 := &ValidationError{Index: -1, Rule: "global", Desc: "boom"}
	if got := e2.Error(); got != "invalid history: global: boom" {
		t.Errorf("Error() = %q", got)
	}
}

func TestProjectionAndIsomorphism(t *testing.T) {
	h := twoProcExchange()
	p1 := h.Projection(1)
	if len(p1) != 2 || p1[0].Kind != KindSend || p1[1].Kind != KindCrash {
		t.Fatalf("projection of 1 wrong: %v", p1)
	}
	p2 := h.Projection(2)
	if len(p2) != 2 || p2[0].Kind != KindRecv || p2[1].Kind != KindFailed {
		t.Fatalf("projection of 2 wrong: %v", p2)
	}

	// Swapping the two adjacent events of different processes preserves =_P.
	swapped := History{
		Send(1, 2, 1, "APP", None),
		Recv(2, 1, 1, "APP", None),
		Crash(1),
		Failed(2, 1),
	}.Normalize()
	if !h.IsomorphicTo(swapped) {
		t.Error("histories differing only in interleaving must be isomorphic")
	}
	if !swapped.IsomorphicTo(h) {
		t.Error("isomorphism must be symmetric")
	}

	// Dropping an event breaks isomorphism.
	if h.IsomorphicTo(h[:3]) {
		t.Error("prefix must not be isomorphic to full history")
	}

	// Reordering events of the *same* process breaks isomorphism.
	reordered := History{
		Recv(2, 1, 1, "APP", None), // invalid as a run, but IsomorphicTo is order-only
		Failed(2, 1),
		Send(1, 2, 1, "APP", None),
		Crash(1),
	}
	if !h.IsomorphicTo(reordered) {
		t.Error("per-process order preserved: still isomorphic")
	}
	sameProcSwap := History{
		Failed(2, 1),
		Recv(2, 1, 1, "APP", None),
		Send(1, 2, 1, "APP", None),
		Crash(1),
	}
	if h.IsomorphicTo(sameProcSwap) {
		t.Error("swapping same-process events must break isomorphism")
	}
}

func TestIndexHelpers(t *testing.T) {
	h := twoProcExchange()
	if got := h.CrashIndex(1); got != 3 {
		t.Errorf("CrashIndex(1) = %d, want 3", got)
	}
	if got := h.CrashIndex(2); got != -1 {
		t.Errorf("CrashIndex(2) = %d, want -1", got)
	}
	if got := h.FailedIndex(2, 1); got != 2 {
		t.Errorf("FailedIndex(2,1) = %d, want 2", got)
	}
	if got := h.FailedIndex(1, 2); got != -1 {
		t.Errorf("FailedIndex(1,2) = %d, want -1", got)
	}
}

func TestCrashedAndDetections(t *testing.T) {
	h := History{
		Failed(2, 1),
		Crash(1),
		Failed(3, 1),
		Crash(3),
	}.Normalize()
	dets := h.Detections()
	if len(dets) != 2 {
		t.Fatalf("Detections() len = %d, want 2", len(dets))
	}
	if dets[0] != (Detection{Detector: 2, Detected: 1, Index: 0}) {
		t.Errorf("dets[0] = %+v", dets[0])
	}
	if dets[1] != (Detection{Detector: 3, Detected: 1, Index: 2}) {
		t.Errorf("dets[1] = %+v", dets[1])
	}
}

func TestProcessesAndClone(t *testing.T) {
	h := History{Send(1, 7, 1, "a", None)}
	if got := h.Processes(); got != 7 {
		t.Errorf("Processes() = %d, want 7", got)
	}
	h2 := History{Failed(2, 9)}
	if got := h2.Processes(); got != 9 {
		t.Errorf("Processes() = %d, want 9", got)
	}
	c := h.Clone()
	c[0].Tag = "mutated"
	if h[0].Tag == "mutated" {
		t.Error("Clone must not share backing storage")
	}
}

func TestNormalizeAssignsSeq(t *testing.T) {
	h := History{Crash(1), Crash(2), Crash(3)}
	h.Normalize()
	for i, e := range h {
		if int(e.Seq) != i {
			t.Errorf("event %d has Seq %d", i, e.Seq)
		}
	}
}

// Property: every history produced by Gen validates.
func TestGeneratedHistoriesAreValid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64, nRaw, stepsRaw uint8) bool {
		n := int(nRaw%8) + 2
		steps := int(stepsRaw%200) + 1
		h := NewGen(seed).History(n, steps)
		return h.Validate() == nil
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: generated histories are isomorphic to themselves and to clones.
func TestGeneratedHistoriesSelfIsomorphic(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		h := NewGen(seed).History(5, 120)
		if !h.IsomorphicTo(h.Clone()) {
			t.Fatalf("seed %d: history not isomorphic to its clone", seed)
		}
	}
}

// Property: Index answers exactly what the per-call History scans answer,
// on generated histories and on one with restarts and a repeated detection.
func TestIndexAgreesWithHistoryScans(t *testing.T) {
	hs := []History{
		nil,
		{Crash(2), Restart(2), Failed(1, 2), Crash(2), Failed(3, 2), Failed(1, 2), Crash(3), Restart(3)},
	}
	for seed := int64(0); seed < 40; seed++ {
		hs = append(hs, NewGen(seed).History(3+int(seed%6), 120))
	}
	for hi, h := range hs {
		x := NewIndex(h)
		n := h.Processes()
		if x.Processes() != n {
			t.Fatalf("history %d: Processes = %d, want %d", hi, x.Processes(), n)
		}
		dets := h.Detections()
		if len(x.Detections()) != len(dets) {
			t.Fatalf("history %d: %d detections, want %d", hi, len(x.Detections()), len(dets))
		}
		for k, d := range dets {
			if x.Detections()[k] != d {
				t.Fatalf("history %d: detection %d = %+v, want %+v", hi, k, x.Detections()[k], d)
			}
		}
		down := h.DownAtEnd()
		// One id past each end: out-of-range lookups answer "none".
		for i := ProcID(-1); int(i) <= n+1; i++ {
			if got, want := x.CrashIndex(i), h.CrashIndex(i); got != want {
				t.Errorf("history %d: CrashIndex(%d) = %d, want %d", hi, i, got, want)
			}
			if got := x.DownAtEnd(i); got != down[i] {
				t.Errorf("history %d: DownAtEnd(%d) = %v, want %v", hi, i, got, down[i])
			}
			for j := ProcID(-1); int(j) <= n+1; j++ {
				want := h.FailedIndex(i, j)
				got := -1
				if k := x.Detection(i, j); k >= 0 {
					got = dets[k].Index
				}
				if got != want {
					t.Errorf("history %d: failed_%d(%d) at %d, want %d", hi, i, j, got, want)
				}
			}
		}
	}
}

// isomorphicByProjection is IsomorphicTo as it was written before the
// one-pass version — one Projection per process per side, O(n·|H|) — kept
// as the oracle, with the two rules the doc comment now states made
// explicit: lengths must agree, and process 0's events count.
func isomorphicByProjection(h, o History) bool {
	if len(h) != len(o) {
		return false
	}
	n := h.Processes()
	if on := o.Processes(); on > n {
		n = on
	}
	for p := ProcID(0); p <= ProcID(n); p++ {
		a, b := h.Projection(p), o.Projection(p)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !a[i].Same(b[i]) {
				return false
			}
		}
	}
	return true
}

// perturb applies one single-event mutation that keeps ids in 1..n.
func perturb(h History, n int, rng *rand.Rand) History {
	out := h.Clone()
	if len(out) < 2 {
		return out
	}
	k := rng.Intn(len(out) - 1)
	switch rng.Intn(7) {
	case 0: // drop an event
		out = append(out[:k], out[k+1:]...)
	case 1: // swap two neighbours
		out[k], out[k+1] = out[k+1], out[k]
	case 2: // repeat an event
		out = append(out[:k+1], out[k:]...)
	case 3: // name another subject
		out[k].Target = ProcID(rng.Intn(n) + 1)
	case 4: // hand the event to another process
		out[k].Proc = ProcID(rng.Intn(n) + 1)
	case 5: // change the payload
		out[k].Tag += "'"
	case 6: // swap two receives of one channel
		for ; k < len(out) && out[k].Kind != KindRecv; k++ {
		}
		for l := k + 1; l < len(out); l++ {
			if out[l].Kind == KindRecv && out[l].Proc == out[k].Proc && out[l].Peer == out[k].Peer {
				out[k], out[l] = out[l], out[k]
				break
			}
		}
	}
	return out.Normalize()
}

// Property: the one-pass IsomorphicTo answers what the Projection-based one
// does — on generated histories against themselves, against shuffles that
// keep each process's order (isomorphic by construction) and ones that do
// not, and against single-event mutations.
func TestIsomorphicToMatchesProjectionOracle(t *testing.T) {
	check := func(name string, a, b History) {
		t.Helper()
		want := isomorphicByProjection(a, b)
		if got := a.IsomorphicTo(b); got != want {
			t.Errorf("%s: IsomorphicTo = %v, Projection oracle = %v", name, got, want)
		}
		if got := b.IsomorphicTo(a); got != want {
			t.Errorf("%s (swapped): IsomorphicTo = %v, Projection oracle = %v", name, got, want)
		}
	}
	yes, no := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		n := 2 + int(seed%7)
		h := NewGen(seed).History(n, 150)
		rng := rand.New(rand.NewSource(seed))
		check("self", h, h.Clone())

		// Interleave the per-process projections in a random order: the
		// result is isomorphic to h whatever the order.
		queues := make([][]Event, n+1)
		for p := range queues {
			queues[p] = h.Projection(ProcID(p))
		}
		var merged History
		for len(merged) < len(h) {
			if p := rng.Intn(n + 1); len(queues[p]) > 0 {
				merged, queues[p] = append(merged, queues[p][0]), queues[p][1:]
			}
		}
		if !isomorphicByProjection(h, merged) {
			t.Fatalf("seed %d: a per-process-order-preserving shuffle must be isomorphic", seed)
		}
		check("merge", h, merged)

		shuffled := h.Clone()
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		check("shuffle", h, shuffled)

		for m := 0; m < 8; m++ {
			mut := perturb(h, n, rng)
			check("mutation", h, mut)
			check("mutation of merge", merged, mut)
			if isomorphicByProjection(h, mut) {
				yes++
			} else {
				no++
			}
		}
	}
	if yes == 0 || no == 0 {
		t.Errorf("mutations were isomorphic %d times and not %d times; the test needs both", yes, no)
	}

	// An event without an actor is compared like any other: the parent's
	// loop started at process 1 and called these two isomorphic.
	a := History{Internal(1, "x", None), Internal(0, "y", None)}
	b := History{Internal(1, "x", None), Internal(0, "z", None)}
	if a.IsomorphicTo(b) || isomorphicByProjection(a, b) {
		t.Error("histories differing in an actor-less event must not be isomorphic")
	}
	if !a.IsomorphicTo(a.Clone()) {
		t.Error("a history with an actor-less event is isomorphic to itself")
	}
	// Unequal lengths are never isomorphic, even when only process 0 differs.
	if a.IsomorphicTo(a[:1]) || a[:1].IsomorphicTo(a) {
		t.Error("histories of unequal length must not be isomorphic")
	}
	// An actor outside 0..MaxProcs makes a history isomorphic to nothing,
	// instead of indexing a table with it.
	for _, p := range []ProcID{-1, MaxProcs + 1, math.MaxInt32} {
		bad := History{Crash(p)}
		if bad.IsomorphicTo(bad) {
			t.Errorf("a history naming process %d must be isomorphic to nothing", p)
		}
	}
}

// validateByMaps is validate as it was written before the dense version —
// six maps, per-channel send-order slices — kept as the oracle for which
// event breaks which rule first. The proc-id rule is stated as it is now.
func validateByMaps(h History, byzSenders map[ProcID]bool) (tampered, index int, rule string) {
	type chanKey struct{ from, to ProcID }
	sendIdx := make(map[MsgID]int)
	recvSeen := make(map[MsgID]bool)
	sendOrder := make(map[chanKey][]MsgID)
	recvCursor := make(map[chanKey]int)
	crashed := make(map[ProcID]bool)
	detected := make(map[[2]ProcID]bool)

	for idx, e := range h {
		if e.Proc == None {
			return tampered, idx, "actor"
		}
		for _, p := range [...]ProcID{e.Proc, e.Peer, e.Target} {
			if p < 0 || p > MaxProcs {
				return tampered, idx, "proc-id"
			}
		}
		switch e.Kind {
		case KindSend, KindRecv, KindCrash, KindFailed, KindInternal:
		default:
			return tampered, idx, "kind"
		}
		if restart := e.Kind == KindInternal && e.Tag == TagRestart; crashed[e.Proc] {
			if !restart {
				return tampered, idx, "crash-finality"
			}
			crashed[e.Proc] = false
		} else if restart {
			return tampered, idx, "restart-without-crash"
		}
		switch e.Kind {
		case KindInternal:
		case KindSend:
			if e.Peer == None || e.Msg == 0 {
				return tampered, idx, "send"
			}
			if _, dup := sendIdx[e.Msg]; dup {
				return tampered, idx, "unique-msg"
			}
			sendIdx[e.Msg] = idx
			k := chanKey{from: e.Proc, to: e.Peer}
			sendOrder[k] = append(sendOrder[k], e.Msg)
		case KindRecv:
			if e.Peer == None || e.Msg == 0 {
				return tampered, idx, "recv"
			}
			si, ok := sendIdx[e.Msg]
			if !ok {
				return tampered, idx, "recv-before-send"
			}
			fromByz := byzSenders[e.Peer]
			if recvSeen[e.Msg] {
				if fromByz {
					tampered++
					continue
				}
				return tampered, idx, "unique-recv"
			}
			s := h[si]
			if s.Proc != e.Peer || s.Peer != e.Proc {
				return tampered, idx, "channel"
			}
			if s.Tag != e.Tag || s.Target != e.Target {
				if !fromByz {
					return tampered, idx, "garble"
				}
				tampered++
			}
			k := chanKey{from: e.Peer, to: e.Proc}
			pos := -1
			for i := recvCursor[k]; i < len(sendOrder[k]); i++ {
				if sendOrder[k][i] == e.Msg {
					pos = i
					break
				}
			}
			if pos < 0 {
				if fromByz {
					tampered++
					recvSeen[e.Msg] = true
					continue
				}
				return tampered, idx, "fifo"
			}
			recvCursor[k] = pos + 1
			recvSeen[e.Msg] = true
		case KindCrash:
			crashed[e.Proc] = true
		case KindFailed:
			if e.Target == None {
				return tampered, idx, "failed"
			}
			key := [2]ProcID{e.Proc, e.Target}
			if detected[key] {
				return tampered, idx, "failed-once"
			}
			detected[key] = true
		}
	}
	return tampered, -1, ""
}

// Property: Validate and ValidateUnderByz name the same first violation —
// event index and rule — and count the same tampered receives as the
// map-based validator, on generated histories mutated up to three times.
func TestValidateMatchesMapOracle(t *testing.T) {
	rules, ghosts := map[string]int{}, 0
	for seed := int64(0); seed < 1000; seed++ {
		n := 2 + int(seed%7)
		h := NewGen(seed).History(n, 120)
		rng := rand.New(rand.NewSource(seed))
		for m := rng.Intn(4); m > 0; m-- {
			h = perturb(h, n, rng)
		}
		if seed%10 == 0 && len(h) > 0 {
			h[rng.Intn(len(h))].Peer = MaxProcs + 1 + ProcID(rng.Intn(2))*(math.MaxInt32-MaxProcs-1)
		}
		var victims map[ProcID]bool
		if seed%2 == 1 {
			victims = map[ProcID]bool{ProcID(rng.Intn(n) + 1): true, ProcID(rng.Intn(n) + 1): true}
		}
		wantTampered, wantIdx, wantRule := validateByMaps(h, victims)
		tampered, err := h.ValidateUnderByz(victims)
		gotIdx, gotRule := -1, ""
		var verr *ValidationError
		if errors.As(err, &verr) {
			gotIdx, gotRule = verr.Index, verr.Rule
		} else if err != nil {
			t.Fatalf("seed %d: error %v carries no *ValidationError", seed, err)
		}
		if gotIdx != wantIdx || gotRule != wantRule || tampered != wantTampered {
			t.Errorf("seed %d: Validate = (%d, %q, tampered %d), oracle (%d, %q, tampered %d)",
				seed, gotIdx, gotRule, tampered, wantIdx, wantRule, wantTampered)
		}
		rules[wantRule]++
		ghosts += wantTampered
	}
	if ghosts == 0 {
		t.Error("no receive was tolerated as scripted tampering; the Byzantine-tolerant path was not compared")
	}
	for _, rule := range []string{"", "proc-id", "crash-finality", "unique-msg", "recv-before-send",
		"unique-recv", "channel", "garble", "fifo", "failed-once"} {
		if rules[rule] == 0 {
			t.Errorf("no mutated history ended in rule %q; the comparison does not reach it", rule)
		}
	}
	t.Logf("first violations: %v; %d receives tolerated as tampering", rules, ghosts)
}

// An id past MaxProcs is a proc-id violation wherever it sits, and costs
// nothing to reject: no table is sized from it.
func TestValidateBoundsProcessIDs(t *testing.T) {
	for _, h := range []History{
		{Internal(math.MaxInt32, "x", None)},
		{Failed(1, MaxProcs+1)},
		{Send(1, MaxProcs+1, 1, "a", None)},
	} {
		var verr *ValidationError
		if err := h.Validate(); !errors.As(err, &verr) || verr.Rule != "proc-id" {
			t.Errorf("Validate(%v) = %v, want a proc-id violation", h, err)
		}
		if x := NewIndex(h); x.Err() == nil || !errors.Is(x.Err(), ErrInvalidHistory) || x.Processes() != 0 {
			t.Errorf("NewIndex(%v): Err = %v, Processes = %d; want the proc-id violation and no tables", h, x.Err(), x.Processes())
		}
	}
	if err := (History{Internal(MaxProcs, "x", None)}).Validate(); err != nil {
		t.Errorf("process MaxProcs itself is in range: %v", err)
	}
}
