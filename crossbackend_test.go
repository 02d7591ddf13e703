package failstop_test

import (
	"fmt"
	"testing"
	"time"

	"failstop"
)

// fastLive is the live setting most cross-backend tests run their Options
// under: 100µs ticks, so a scenario's tick times pass ten times faster than
// at the default, and delays of half a tick to five ticks.
var fastLive = failstop.Live{
	MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
	Tick: 100 * time.Microsecond,
}

// startLive builds and starts a live cluster, failing the test if either
// step returns an error.
func startLive(t *testing.T, opts failstop.Options, live failstop.Live) *failstop.LiveCluster {
	t.Helper()
	lc, err := failstop.NewLiveCluster(opts, live)
	if err != nil {
		t.Fatal(err)
	}
	if err := lc.Start(); err != nil {
		t.Fatal(err)
	}
	return lc
}

// fateMatrix is the protocol-level delivery fate of a run: which (i, j)
// detections completed and which processes ended up crashed. Over a
// deterministic fault plan the matrix is a pure function of the scenario,
// so the simulated and live backends must agree on it exactly.
type fateMatrix struct {
	detected [][]bool
	crashed  []bool
}

func fatesOf(h failstop.History, n int) fateMatrix {
	m := fateMatrix{detected: make([][]bool, n+1), crashed: make([]bool, n+1)}
	for i := 1; i <= n; i++ {
		m.detected[i] = make([]bool, n+1)
		for j := 1; j <= n; j++ {
			m.detected[i][j] = h.FailedIndex(failstop.ProcID(i), failstop.ProcID(j)) >= 0
		}
		m.crashed[i] = h.CrashIndex(failstop.ProcID(i)) >= 0
	}
	return m
}

func (m fateMatrix) covers(o fateMatrix) bool {
	for i := range m.detected {
		if i == 0 {
			continue
		}
		for j, want := range o.detected[i] {
			if want && !m.detected[i][j] {
				return false
			}
		}
		if o.crashed[i] && !m.crashed[i] {
			return false
		}
	}
	return true
}

func (m fateMatrix) String() string {
	s := ""
	for i := 1; i < len(m.detected); i++ {
		for j := 1; j < len(m.detected[i]); j++ {
			if m.detected[i][j] {
				s += fmt.Sprintf("detected(%d,%d) ", i, j)
			}
		}
		if m.crashed[i] {
			s += fmt.Sprintf("crashed(%d) ", i)
		}
	}
	return s
}

// TestCrossBackendTopologyFates: the same gossip fan-out scenario under
// the same correlated region cut must reach the same protocol outcome on
// the simulated and the live (goroutine) backend — identical detection
// matrix and crash set. The overlay is seed-pinned, so both backends walk
// the same graph, and the cut is made permanent (From 0, no heal) so the
// fate of every cross-boundary message is independent of wall-clock
// scheduling — which is what lets this test run under the race detector
// without becoming timing-sensitive.
func TestCrossBackendTopologyFates(t *testing.T) {
	const n, tt = 6, 1
	tp, err := failstop.ParseTopo("gossip:3@7")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := failstop.BuiltinFaultPlan("region-cut", n, tt)
	if err != nil {
		t.Fatal(err)
	}
	// The builtin cuts from tick 10 and heals at 200; pin the cut open for
	// the whole run so backends cannot disagree about messages sent near
	// the window edges.
	plan.Rules[0].From = 0
	plan.Rules[0].Until = 0

	opts := failstop.Options{N: n, T: tt, Seed: 3, Topology: &tp, Faults: &plan}
	sim := failstop.NewCluster(opts)
	// One suspicion per region: subjects 3 and 6 sit on opposite sides of
	// the cut, so their quorums draw on disjoint live neighborhoods.
	sim.SuspectAt(5, 2, 3)
	sim.SuspectAt(5, 5, 6)
	rep := sim.Run()
	want := fatesOf(rep.History, n)

	// Non-vacuity: the scenario must produce at least one completed
	// detection, and the cut must starve at least one relay — otherwise
	// the agreement below proves nothing about topology or the plan.
	anyDetected := false
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if want.detected[i][j] {
				anyDetected = true
			}
		}
	}
	if !anyDetected {
		t.Fatalf("simulated scenario completed no detections: %v", want)
	}
	if rep.Dropped == 0 {
		t.Fatalf("simulated scenario crossed the cut %d times, want > 0", rep.Dropped)
	}

	lc := startLive(t, opts, failstop.Live{
		MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Tick: time.Millisecond,
	})
	lc.Suspect(2, 3)
	lc.Suspect(5, 6)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fatesOf(lc.History(), n).covers(want) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	lc.Stop()
	got := fatesOf(lc.History(), n)
	if err := lc.History().Validate(); err != nil {
		t.Fatalf("invalid live history: %v", err)
	}

	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if got.detected[i][j] != want.detected[i][j] {
				t.Errorf("backends disagree on detection (%d,%d): sim=%v live=%v",
					i, j, want.detected[i][j], got.detected[i][j])
			}
		}
		if got.crashed[i] != want.crashed[i] {
			t.Errorf("backends disagree on crash of %d: sim=%v live=%v", i, want.crashed[i], got.crashed[i])
		}
	}
	if t.Failed() {
		t.Logf("sim:  %v", want)
		t.Logf("live: %v", got)
	}
}
