package checker_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/model"
	"failstop/internal/quorum"
)

// dropTagsByCopy is History.DropTags as it was written before it became a
// view of the scan: count what is kept, copy it, renumber.
func dropTagsByCopy(h model.History, tags ...string) model.History {
	dropped := func(e model.Event) bool {
		if e.Kind != model.KindSend && e.Kind != model.KindRecv {
			return false
		}
		for _, t := range tags {
			if e.Tag == t {
				return true
			}
		}
		return false
	}
	keep := 0
	for _, e := range h {
		if !dropped(e) {
			keep++
		}
	}
	out := make(model.History, 0, keep)
	for _, e := range h {
		if !dropped(e) {
			out = append(out, e)
		}
	}
	return out.Normalize()
}

// quorumSetsByRescan is checker.QuorumSets as it was written before the
// scan: a walk of the full history that keeps one growing set per (i, j)
// and copies it out at each failed_i(j).
func quorumSetsByRescan(h model.History, suspTag string) []quorum.Set {
	heard := map[[2]model.ProcID]*quorum.Set{}
	var out []quorum.Set
	for _, e := range h {
		switch {
		case e.Kind == model.KindRecv && e.Tag == suspTag && e.Target != model.None:
			k := [2]model.ProcID{e.Proc, e.Target}
			if heard[k] == nil {
				heard[k] = new(quorum.Set)
			}
			heard[k].Add(e.Peer)
		case e.Kind == model.KindFailed:
			var q quorum.Set
			if s := heard[[2]model.ProcID{e.Proc, e.Target}]; s != nil {
				q = append(q, *s...)
			}
			q.Add(e.Proc)
			out = append(out, q)
		}
	}
	return out
}

// witnessByRescan is checker.WitnessProperty over quorumSetsByRescan.
func witnessByRescan(h model.History, suspTag string, t int) checker.Verdict {
	sets, dets := quorumSetsByRescan(h, suspTag), h.Detections()
	sub := quorum.EmptySubfamily(sets, t)
	if sub == nil {
		return checker.Verdict{Property: "W", Holds: true}
	}
	names := make([]string, len(sub))
	for i, k := range sub {
		names[i] = fmt.Sprintf("failed_%d(%d) %v", dets[k].Detector, dets[k].Detected, sets[k])
	}
	return checker.Verdict{Property: "W", Detail: fmt.Sprintf(
		"the quorum sets of %s share no member (%d of %d detections, t = %d)",
		strings.Join(names, ", "), len(sub), len(sets), t)}
}

// TestOneScanMatchesStandalone: on every history of the reading corpus, one
// scan yields what the chain it replaces yields — the abstraction DropTags
// copied out, the lookups History's own rescans answer, the quorum sets a
// second walk of the full history reconstructs — and the ten verdicts read
// off it (and the facade's seven) equal, Property, Holds and Detail, the
// per-property functions run one by one on that abstraction.
func TestOneScanMatchesStandalone(t *testing.T) {
	const tag = core.TagSusp
	restarted := false
	for _, r := range readingCorpus(t) {
		s := model.NewScan(r.h, tag, checker.TransportTags(tag)...)
		ab := dropTagsByCopy(r.h, checker.TransportTags(tag)...)
		if len(s.Abstract) != len(ab) || cap(s.Abstract) != len(ab) {
			t.Fatalf("%s: abstract history has len %d cap %d, want exactly %d", r.name, len(s.Abstract), cap(s.Abstract), len(ab))
		}
		for k := range ab {
			if s.Abstract[k] != ab[k] {
				t.Fatalf("%s: abstract event %d = %+v, want %+v", r.name, k, s.Abstract[k], ab[k])
			}
		}

		x, n, dets, down := s.Index, ab.Processes(), ab.Detections(), ab.DownAtEnd()
		if x.Err() != nil || x.Processes() != n || len(x.Detections()) != len(dets) {
			t.Fatalf("%s: index has Err %v, n = %d, %d detections; want nil, %d, %d",
				r.name, x.Err(), x.Processes(), len(x.Detections()), n, len(dets))
		}
		for k, d := range dets {
			if x.Detections()[k] != d {
				t.Fatalf("%s: detection %d = %+v, want %+v", r.name, k, x.Detections()[k], d)
			}
		}
		for i := model.ProcID(-1); int(i) <= n+1; i++ {
			if got, want := x.CrashIndex(i), ab.CrashIndex(i); got != want {
				t.Errorf("%s: CrashIndex(%d) = %d, want %d", r.name, i, got, want)
			}
			if x.DownAtEnd(i) != down[i] {
				t.Errorf("%s: DownAtEnd(%d) = %v, want %v", r.name, i, x.DownAtEnd(i), down[i])
			}
			restarted = restarted || (x.CrashIndex(i) >= 0 && !x.DownAtEnd(i))
			for j := model.ProcID(-1); int(j) <= n+1; j++ {
				got := -1
				if k := x.Detection(i, j); k >= 0 {
					got = dets[k].Index
				}
				if want := ab.FailedIndex(i, j); got != want {
					t.Errorf("%s: failed_%d(%d) at %d, want %d", r.name, i, j, got, want)
				}
			}
		}

		if got, want := checker.QuorumSets(r.h, tag), quorumSetsByRescan(r.h, tag); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: quorum sets = %v, want %v", r.name, got, want)
		}

		standalone := []checker.Verdict{
			checker.FS1(ab), checker.FS2(ab),
			checker.SFS2a(ab), checker.SFS2b(ab), checker.SFS2c(ab), checker.SFS2d(ab),
			checker.Condition1(ab), checker.Condition2(ab), checker.Condition3(ab),
			witnessByRescan(r.h, tag, r.t),
		}
		sameVerdicts(t, r.name+": AllOf(scan)", checker.AllOf(s, r.t), standalone)
		sameVerdicts(t, r.name+": All", checker.All(r.h, tag, r.t), standalone)
		sameVerdicts(t, r.name+": SFS", checker.SFS(ab), append(standalone[:1:1], standalone[2:6]...))
		sameVerdicts(t, r.name+": FS", checker.FS(ab), standalone[:2])
		sameVerdicts(t, r.name+": WitnessProperty", []checker.Verdict{checker.WitnessProperty(r.h, tag, r.t)}, standalone[9:])
		if r.facade != nil {
			seven := append(append(standalone[:1:1], standalone[2:6]...), standalone[1], standalone[9])
			sameVerdicts(t, r.name+": facade", r.facade, seven)
		}
	}
	if !restarted {
		t.Error("no corpus history has a process that crashed and is up at the end; DownAtEnd was only compared where it equals crashed")
	}
}

func sameVerdicts(t *testing.T, what string, got, want []checker.Verdict) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", what, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s: verdict %d = %+v, want %+v", what, k, got[k], want[k])
		}
	}
}

// A process id the dense tables must not be sized or indexed by — negative,
// or past model.MaxProcs — turns every verdict into "not holding" with the
// proc-id violation as its detail.
func TestHostileProcessIDs(t *testing.T) {
	for _, h := range []model.History{
		{model.Failed(-1, 2), model.Crash(2)},
		{model.Failed(1, -2)},
		{model.Crash(1), model.Internal(math.MaxInt32, "x", model.None)},
		{model.Send(1, model.MaxProcs+1, 1, core.TagSusp, 2)},
	} {
		vs := checker.All(h, core.TagSusp, 1)
		vs = append(vs, checker.SFS(h)...)
		vs = append(vs, checker.FS(h)...)
		vs = append(vs, checker.FS1At(h, 3), checker.SFS2b(h), checker.SFS2c(h), checker.Condition3(h),
			checker.WitnessProperty(h, core.TagSusp, 1))
		for _, v := range vs {
			if v.Holds || !strings.Contains(v.Detail, "proc-id") {
				t.Errorf("%v: %s; want a violation naming the proc-id rule", h, v)
			}
		}
		if sets := checker.QuorumSets(h, core.TagSusp); len(sets) != 0 {
			t.Errorf("%v: QuorumSets = %v, want none", h, sets)
		}
		if ab := checker.Abstract(h, core.TagSusp); ab != nil {
			t.Errorf("%v: Abstract = %v, want nil", h, ab)
		}
	}
}
