package model

import (
	"errors"
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
		if e.Seq != i {
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
