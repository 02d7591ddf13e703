package failstop_test

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"failstop"
	"failstop/internal/checker"
	"failstop/internal/model"
	"failstop/internal/rewrite"
	"failstop/internal/trace"
)

// The exported checkers and rewriters take a caller's history: a process id
// no table can be indexed by is answered with a verdict or an error, never
// a panic.
func TestCheckersSurviveHostileHistories(t *testing.T) {
	for _, h := range []failstop.History{
		{model.Failed(-1, 2), model.Crash(2)},
		{model.Failed(1, -2)},
		{model.Crash(2), model.Failed(1, 2), model.Internal(math.MaxInt32, "x", model.None)},
		{model.Recv(2, model.MaxProcs+1, 1, failstop.DefaultSuspTag, 1)},
	} {
		vs := failstop.CheckSFS(h)
		vs = append(vs, failstop.CheckFS(h)...)
		vs = append(vs, failstop.CheckAll(h, failstop.DefaultSuspTag, 1)...)
		if len(vs) != 5+2+10 {
			t.Fatalf("%v: %d verdicts, want 17", h, len(vs))
		}
		for _, v := range vs {
			if v.Holds || !strings.Contains(v.Detail, "proc-id") {
				t.Errorf("%v: %s; want a violation naming the proc-id rule", h, v)
			}
		}
		if _, err := failstop.RewriteToFS(h); !errors.Is(err, model.ErrInvalidHistory) {
			t.Errorf("%v: RewriteToFS error = %v, want one wrapping ErrInvalidHistory", h, err)
		}
		if _, _, err := rewrite.Swaps(h); !errors.Is(err, model.ErrInvalidHistory) {
			t.Errorf("%v: Swaps error = %v, want one wrapping ErrInvalidHistory", h, err)
		}
		if failstop.Realizable(h) {
			t.Errorf("%v: Realizable = true", h)
		}
	}
}

// recordedCrashTrace is the v3 trace of a 4-process run in which process 4
// crashes and everyone detects it, as sfs-sim -o writes it.
func recordedCrashTrace(f *testing.F) []byte {
	c := failstop.NewCluster(failstop.Options{N: 4, T: 1, Seed: 1})
	c.CrashAt(5, 4)
	c.SuspectAt(10, 1, 4)
	rep := c.Run()
	if len(rep.History.Detections()) != 3 {
		f.Fatalf("seed run recorded %d detections, want 3", len(rep.History.Detections()))
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.Header{N: 4, T: 1, Protocol: "sfs", Seed: 1}, rep.History); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// allocated runs f and returns how many bytes it allocated.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzCheckHistory feeds whatever trace.Read makes of arbitrary bytes to
// what sfs-check runs on a trace: Validate, CheckAll, Abstract and
// RewriteToFS. Nothing may panic. A history Validate rejects for a process
// id costs the readers no more than a small multiple of the input — no
// table is sized from the id — and one it accepts is indexed in range by
// Graph and Verify, whose rewrite, when there is one, verifies.
func FuzzCheckHistory(f *testing.F) {
	real := recordedCrashTrace(f)
	const header = `{"version":3,"n":4,"t":1}` + "\n"
	f.Add(real)
	f.Add(append(bytes.Clone(real), `{"seq":0,"proc":1099511627776,"kind":5,"tag":"x"}`+"\n"...))
	f.Add([]byte(header + `{"seq":0,"proc":-1,"kind":4,"target":2}` + "\n" + `{"seq":1,"proc":2,"kind":3}` + "\n"))
	f.Add([]byte(header + `{"seq":0,"proc":2,"kind":2,"peer":1,"msg":7,"tag":"SUSP","target":3}` + "\n"))
	f.Add([]byte(header + `{"seq":0,"proc":3,"kind":3}` + "\n" +
		`{"seq":1,"proc":1,"kind":4,"target":3}` + "\n" + `{"seq":2,"proc":1,"kind":4,"target":3}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, h, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		invalid := h.Validate()
		var verr *model.ValidationError
		hostile := errors.As(invalid, &verr) && verr.Rule == "proc-id"
		if !hostile && h.Processes() > 1<<12 {
			// In range, so the tables are dense over it by design; the
			// target keeps its own footprint small.
			t.Skip("history over a large id space")
		}
		var ab failstop.History
		used := allocated(func() {
			failstop.CheckAll(h, failstop.DefaultSuspTag, 1)
			ab = checker.Abstract(h, failstop.DefaultSuspTag)
			_, _ = failstop.RewriteToFS(ab)
		})
		if budget := uint64(64<<10 + 16*len(data)); hostile && used > budget {
			t.Errorf("readers allocated %d bytes on a %d-byte trace rejected for a process id, budget %d", used, len(data), budget)
		}
		if invalid != nil {
			return
		}
		if out, _, err := rewrite.Graph(ab); err == nil {
			if err := rewrite.Verify(ab, out); err != nil {
				t.Errorf("Graph rewrote a valid history into one Verify rejects: %v", err)
			}
		}
	})
}
