// Tests of the recording and the event queue as data: what a recorded event
// must give back, how big the two per-event structures may be, and what a
// run's history may cost in bytes.
package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
)

// TestRecordedEventsEqualConstructors drives every event kind through the
// recording, one event per occurrence, until the run stops at exactly
// MaxEvents two page boundaries later, and requires each materialised event
// to equal what model.Send/Recv/Crash/Failed/Internal build — Seq the index,
// Time the tick — including targets at both ends of a process id's range.
func TestRecordedEventsEqualConstructors(t *testing.T) {
	const maxEvents = 2*recPageLen + 452
	var want model.History
	log := func(ctx node.Context, e model.Event) {
		e.Seq, e.Time = int32(len(want)), ctx.Now()
		want = append(want, e)
	}
	s := New(Config{N: 3, Seed: 1, MinDelay: 2, MaxDelay: 2, MaxEvents: maxEvents})
	var k, sent, got int
	s.SetHandler(1, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("step", 1) },
		onTimer: func(ctx node.Context, _ string) {
			subject := model.ProcID(k % 5)
			switch k % 6 {
			case 0:
				tag := fmt.Sprintf("t%d", k%40)
				ctx.EmitInternal(tag, subject)
				log(ctx, model.Internal(1, tag, subject))
			case 1, 2:
				sent++
				ctx.Send(2, node.Payload{Tag: "M", Subject: subject})
				log(ctx, model.Send(1, 2, model.MsgID(sent), "M", subject))
			case 3:
				ctx.EmitFailed(model.ProcID(k))
				log(ctx, model.Failed(1, model.ProcID(k)))
			case 4:
				top := math.MaxInt32 - model.ProcID(k)
				ctx.EmitInternal("", top)
				log(ctx, model.Internal(1, "", top))
			case 5:
				ctx.EmitInternal("neg", math.MinInt32+model.ProcID(k))
				log(ctx, model.Internal(1, "neg", math.MinInt32+model.ProcID(k)))
			}
			k++
			ctx.SetTimer("step", 3)
		},
	})
	s.SetHandler(2, &scriptHandler{
		onMsg: func(ctx node.Context, from model.ProcID, p node.Payload) {
			got++
			log(ctx, model.Recv(2, from, model.MsgID(got), p.Tag, p.Subject))
		},
	})
	s.SetHandler(3, &scriptHandler{
		init: func(ctx node.Context) { ctx.SetTimer("die", recPageLen+7) },
		onTimer: func(ctx node.Context, _ string) {
			ctx.CrashSelf()
			log(ctx, model.Crash(3))
		},
	})
	res := s.Run()
	if res.Stop != StopMaxEvents || len(res.History) != maxEvents {
		t.Fatalf("stop = %v with %d events, want max-events at exactly %d", res.Stop, len(res.History), maxEvents)
	}
	if len(want) != maxEvents {
		t.Fatalf("handlers logged %d events, the run recorded %d", len(want), maxEvents)
	}
	for i, e := range res.History {
		if e != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestHostileTags: a run that never stops inventing tags records and gives
// back each of them, the empty tag among them — a recorded event holds its
// own tag, so no number of distinct tags is too many.
func TestHostileTags(t *testing.T) {
	const tags = 70_000
	s := New(Config{N: 2, Seed: 1})
	s.SetHandler(1, &scriptHandler{init: func(ctx node.Context) {
		for i := 0; i < tags; i++ {
			ctx.Send(2, node.Payload{Tag: fmt.Sprintf("tag-%d", i)})
			ctx.EmitInternal("", 0)
		}
	}})
	s.SetHandler(2, idle())
	res := s.Run()
	if len(res.History) != 3*tags {
		t.Fatalf("recorded %d events, want %d", len(res.History), 3*tags)
	}
	sends, recvs := 0, 0
	for _, e := range res.History {
		switch e.Kind {
		case model.KindSend:
			if want := fmt.Sprintf("tag-%d", sends); e.Tag != want {
				t.Fatalf("send %d carries tag %q, want %q", sends, e.Tag, want)
			}
			sends++
		case model.KindRecv:
			if want := fmt.Sprintf("tag-%d", recvs); e.Tag != want {
				t.Fatalf("receive %d carries tag %q, want %q", recvs, e.Tag, want)
			}
			recvs++
		default:
			if e.Tag != "" {
				t.Fatalf("event %d carries tag %q, want the empty tag", e.Seq, e.Tag)
			}
		}
	}
	if sends != tags || recvs != tags {
		t.Errorf("%d sends and %d receives, want %d of each", sends, recvs, tags)
	}
}

// hasPointers reports whether a value of type t holds anything the collector
// must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestQueueAndRecordLayout holds an occurrence, written once per event to the
// queue, to half a cache line and no pointers — the queue's pages are never
// scanned and may be reused without being cleared — and to the four fields
// the compiler will keep in registers; a message slot to exactly one cache
// line, a due batch to a quarter of one and a link to half of one. It also
// holds model.Event, which a record page and every history are arrays of, to
// 48 bytes and its fields to their order, which is the key order of every
// trace: a field added or widened there grows every recorded run. And it
// holds a routed copy, which every send appends, to 32 bytes with Wire its
// only pointer: a payload is written once, into its slot, and never rides in
// a copy by value. Last, it holds what a send or a delivery reads of its
// receiver — procCtx's flags, open-batch header, handler and gate — to the
// first 64 bytes, with the inline open batches from byte 64 on, and procCtx
// to a multiple of 128 bytes, so that every process's pair is aligned.
func TestQueueAndRecordLayout(t *testing.T) {
	typ := reflect.TypeOf(occurrence{})
	if typ.Size() > 32 {
		t.Errorf("%v is %d bytes, want <= 32", typ, typ.Size())
	}
	if hasPointers(typ) {
		t.Errorf("%v holds a pointer", typ)
	}
	if n := typ.NumField(); n > 4 {
		t.Errorf("occurrence has %d fields, want <= 4: every copy of one goes through memory", n)
	}
	if size := unsafe.Sizeof(pendingMsg{}); size != 64 {
		t.Errorf("pendingMsg is %d bytes, want exactly 64", size)
	}
	if size := unsafe.Sizeof(dueBatch{}); size != 16 {
		t.Errorf("dueBatch is %d bytes, want exactly 16", size)
	}
	if size := unsafe.Sizeof(channel{}); size != 32 {
		t.Errorf("channel is %d bytes, want exactly 32", size)
	}
	if size := unsafe.Sizeof(host.Copy{}); size != 32 {
		t.Errorf("host.Copy is %d bytes, want exactly 32", size)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(host.Copy{})) {
		if wire := f.Name == "Wire"; wire != hasPointers(f.Type) || wire && f.Type.Kind() != reflect.Pointer {
			t.Errorf("host.Copy.%s is a %v: Wire must be its one pointer", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(model.Event{}); size != 48 {
		t.Errorf("model.Event is %d bytes, want exactly 48", size)
	}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(model.Event{})) {
		fields = append(fields, f.Name)
	}
	if got, want := strings.Join(fields, " "), "Seq Proc Kind Peer Target Msg Tag Time"; got != want {
		t.Errorf("model.Event fields are %q, want %q: trace lines key their fields in this order", got, want)
	}
	var c procCtx
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"crashed", unsafe.Offsetof(c.crashed), unsafe.Sizeof(c.crashed)},
		{"down", unsafe.Offsetof(c.down), unsafe.Sizeof(c.down)},
		{"open", unsafe.Offsetof(c.open), unsafe.Sizeof(c.open)},
		{"h", unsafe.Offsetof(c.h), unsafe.Sizeof(c.h)},
		{"gate", unsafe.Offsetof(c.gate), unsafe.Sizeof(c.gate)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("procCtx.%s ends at byte %d, want within the first 64", f.name, f.off+f.size)
		}
	}
	if off := unsafe.Offsetof(c.openBuf); off != 64 {
		t.Errorf("procCtx.openBuf is at byte %d, want 64: the first open batches are the receiver's second line", off)
	}
	if size := unsafe.Sizeof(c); size%128 != 0 {
		t.Errorf("procCtx is %d bytes, want a multiple of 128: in the ctxs array a receiver's first 128 bytes would straddle three lines", size)
	}
}

// TestSimHistoryBytesBudget: once the pools are warm, a run that keeps its
// Result allocates the history it returns and at most 11 KiB more — no buffer
// it outgrows, no second copy, no ring. The allowance covers what does not
// grow with the history: the Sim (≈ 1 KiB), the Result, the handlers at n=10
// and the rounding of the history's array up to whole pages; it measures
// 9.4 KiB at 20 rounds and 7.6 KiB at 80. The calendar's 4 KiB ring is the
// bulk's: back in the unpooled Sim, it would take both over the allowance.
func TestSimHistoryBytesBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation measurement")
	}
	const allowance = 11 // KiB
	for _, rounds := range []int{20, 80} {
		var events int
		_, kib := allocsAndKiB(20, func() { events = len(runFlood(10, rounds, 1).History) })
		history := float64(events) * float64(unsafe.Sizeof(model.Event{})) / 1024
		if budget := history + allowance; kib > budget {
			t.Errorf("%d rounds: %.0f KiB allocated for a %.0f KiB history, budget %.0f", rounds, kib, history, budget)
		}
	}
}
