package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"failstop/internal/model"
	"failstop/internal/netadv"
)

func sample() model.History {
	return model.History{
		model.Send(1, 2, 1, "SUSP", 3),
		model.Recv(2, 1, 1, "SUSP", 3),
		model.Failed(2, 3),
		model.Crash(3),
		model.Internal(1, "note", model.None),
	}.Normalize()
}

func TestRoundTrip(t *testing.T) {
	h := sample()
	var buf bytes.Buffer
	hdr := Header{N: 3, T: 1, Protocol: "sfs", Seed: 42, Schedule: "mutual", Plan: "split-brain", Note: "unit"}
	if err := Write(&buf, hdr, h); err != nil {
		t.Fatal(err)
	}
	got, gh, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || got.T != 1 || got.Protocol != "sfs" || got.Seed != 42 || got.Version != FormatVersion {
		t.Errorf("header = %+v", got)
	}
	if got.Schedule != "mutual" || got.Plan != "split-brain" {
		t.Errorf("fault metadata lost: schedule=%q plan=%q", got.Schedule, got.Plan)
	}
	if len(gh) != len(h) {
		t.Fatalf("history length %d, want %d", len(gh), len(h))
	}
	for i := range h {
		if !h[i].Same(gh[i]) {
			t.Errorf("event %d: %s != %s", i, h[i], gh[i])
		}
	}
}

// Equal tags of a history read from disk are one string, as they are in a
// history out of the simulator: the readers' tag comparisons stop at the
// pointer, and a trace holds one copy of "SUSP", not one per event.
func TestReadSharesTagBytes(t *testing.T) {
	var h model.History
	for m := model.MsgID(1); m <= 50; m++ {
		tag := []string{"SUSP", "APP", ""}[m%3]
		h = append(h, model.Send(1, 2, m, tag, 3), model.Recv(2, 1, m, tag, 3))
	}
	var buf bytes.Buffer
	if err := Write(&buf, Header{N: 3}, h.Normalize()); err != nil {
		t.Fatal(err)
	}
	_, got, err := Read(&buf)
	if err != nil || !got.IsomorphicTo(h) {
		t.Fatalf("Read: %v; history %v", err, got)
	}
	first := map[string]*byte{}
	for i := range got {
		p, ok := first[got[i].Tag]
		if !ok {
			first[got[i].Tag] = unsafe.StringData(got[i].Tag)
		} else if p != unsafe.StringData(got[i].Tag) {
			t.Fatalf("event %d carries its own copy of tag %q", i, got[i].Tag)
		}
	}
}

func TestHeaderDefaultsN(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{}, sample()); err != nil {
		t.Fatal(err)
	}
	hdr, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.N != 3 {
		t.Errorf("N = %d, want 3 (inferred)", hdr.N)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "not json\n",
		"bad version": `{"version":99}` + "\n",
		"bad event":   `{"version":3,"n":2}` + "\nnope\n",
		"negative n":  `{"version":3,"n":-1}` + "\n",
		"negative t":  `{"version":3,"n":2,"t":-5}` + "\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			_, _, err := Read(strings.NewReader(in))
			if !errors.Is(err, ErrBadTrace) {
				t.Errorf("err = %v, want ErrBadTrace", err)
			}
		})
	}
}

// TestReadVersion1: nothing has written version 1 (no schedule/plan
// metadata) since the format gained fault context; the reader refuses it,
// naming the version it found and the one it handles.
func TestReadVersion1(t *testing.T) {
	in := `{"version":1,"n":2,"t":1,"protocol":"sfs","seed":7}` + "\n" +
		`{"seq":0,"proc":1,"kind":3}` + "\n"
	_, h, err := Read(strings.NewReader(in))
	if !errors.Is(err, ErrBadTrace) || h != nil {
		t.Fatalf("version-1 trace: err = %v, history = %v; want ErrBadTrace and no history", err, h)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 1") || !strings.Contains(msg, "version 3") {
		t.Errorf("error %q does not name versions 1 and 3", msg)
	}
}

func TestBlankLinesTolerated(t *testing.T) {
	in := `{"version":3,"n":2}` + "\n\n" + `{"seq":0,"proc":1,"kind":3}` + "\n"
	_, h, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 1 || h[0].Kind != model.KindCrash {
		t.Errorf("history = %v", h)
	}
}

func TestEmptyHistoryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Header{N: 2}, model.History{}); err != nil {
		t.Fatal(err)
	}
	_, h, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != 0 {
		t.Errorf("history = %v, want empty", h)
	}
}

// TestFaultPlanRoundTrip: the fully serialized plan survives the header, so
// a trace replays without access to the builtin registry that generated it.
func TestFaultPlanRoundTrip(t *testing.T) {
	plan := netadv.Plan{
		Name: "custom",
		Rules: []netadv.Rule{
			{From: 10, Until: 200, Cut: true, Links: netadv.LinkSet{
				Groups: [][]model.ProcID{{1, 2}, {3}},
				Pairs:  []netadv.Link{{From: 3, To: 1}},
			}},
			{Tags: []string{"SUSP"}, Drop: 0.25, Duplicate: 0.1, Reorder: 0.05, JitterMax: 7},
			// The dynamic-plan fields must survive the header too: a periodic
			// (moving) cut and a bandwidth-shaped link.
			{From: 10, Period: 100, ActiveFor: 25, Cut: true, Links: netadv.LinkSet{
				Groups: [][]model.ProcID{{2}},
			}},
			{QueueDelay: 15, Links: netadv.LinkSet{Pairs: []netadv.Link{{From: 1, To: 3}}}},
		},
		// Process-fault rules (the crash-recovery subsystem) must survive
		// too: a one-shot crash/restart pair and a bounded periodic storm.
		Procs: []netadv.ProcRule{
			{Proc: 2, CrashAt: 50, RestartAt: 120},
			{Proc: 3, CrashAt: 30, Period: 200, ActiveFor: 60, Until: 900},
		},
		// Byzantine rules must survive too: a corruptor/replayer and an
		// equivocator with its receiver groups.
		Byz: []netadv.ByzRule{
			{Victim: 2, From: 10, Tags: []string{"SUSP"}, Corrupt: 1, Replay: 0.5, ReplayDelay: 400},
			{Victim: 3, Equivocate: [][]model.ProcID{{1}, {2}}},
		},
	}
	var buf bytes.Buffer
	hdr := Header{N: 3, T: 1, Plan: plan.Name, FaultPlan: &plan}
	if err := Write(&buf, hdr, sample()); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FaultPlan == nil {
		t.Fatal("FaultPlan lost in the round trip")
	}
	if !reflect.DeepEqual(*got.FaultPlan, plan) {
		t.Errorf("FaultPlan = %+v, want %+v", *got.FaultPlan, plan)
	}
	if err := got.FaultPlan.Validate(3); err != nil {
		t.Errorf("recovered plan does not validate: %v", err)
	}

	// Headers without the field read back as nil.
	buf.Reset()
	if err := Write(&buf, Header{N: 3, T: 1, Plan: "split-brain"}, sample()); err != nil {
		t.Fatal(err)
	}
	got, _, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FaultPlan != nil {
		t.Errorf("absent fault plan read back as %+v", got.FaultPlan)
	}
}
