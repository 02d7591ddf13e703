package node

import (
	"slices"
	"testing"

	"failstop/internal/model"
)

func TestLinkDecisionCopies(t *testing.T) {
	cases := []struct {
		name string
		dec  LinkDecision
		want int
	}{
		{"zero value delivers once", LinkDecision{}, 1},
		{"drop delivers nothing", LinkDecision{Drop: true}, 0},
		{"drop wins over duplicates", LinkDecision{Drop: true, Duplicates: 3}, 0},
		{"one duplicate is two copies", LinkDecision{Duplicates: 1}, 2},
		{"park still counts its copies", LinkDecision{Park: true, Duplicates: 2}, 3},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.dec.Copies(); got != tt.want {
				t.Errorf("Copies() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestZeroLinkDecisionIsNormalDelivery(t *testing.T) {
	var dec LinkDecision
	if dec.Drop || dec.Park || dec.Reorder || dec.ExtraDelay != 0 || dec.Duplicates != 0 {
		t.Errorf("zero LinkDecision carries faults: %+v", dec)
	}
}

// fakeHandler exercises the full optional-interface surface a host may
// probe for: Handler, Gate, and CrashListener.
type fakeHandler struct {
	inits, msgs, timers, crashes int
	accepts                      bool
}

func (f *fakeHandler) Init(Context) { f.inits++ }
func (f *fakeHandler) OnMessage(ctx Context, from model.ProcID, p Payload) {
	f.msgs++
}
func (f *fakeHandler) OnTimer(ctx Context, name string) { f.timers++ }
func (f *fakeHandler) Accepts(from model.ProcID, p Payload) bool {
	return f.accepts
}
func (f *fakeHandler) OnCrash(Context) { f.crashes++ }

// TestOptionalInterfaceDiscovery pins down the contract hosts rely on:
// Gate and CrashListener are discovered by type assertion on a Handler.
func TestOptionalInterfaceDiscovery(t *testing.T) {
	var h Handler = &fakeHandler{accepts: true}
	g, ok := h.(Gate)
	if !ok {
		t.Fatal("fakeHandler does not expose Gate via type assertion")
	}
	if !g.Accepts(1, Payload{Tag: "APP"}) {
		t.Error("gate answer lost through the interface")
	}
	if _, ok := h.(CrashListener); !ok {
		t.Error("fakeHandler does not expose CrashListener via type assertion")
	}
	// A bare handler without the optional interfaces must not match them.
	var bare Handler = bareHandler{}
	if _, ok := bare.(Gate); ok {
		t.Error("bare handler unexpectedly matches Gate")
	}
	if _, ok := bare.(CrashListener); ok {
		t.Error("bare handler unexpectedly matches CrashListener")
	}
}

type bareHandler struct{}

func (bareHandler) Init(Context)                             {}
func (bareHandler) OnMessage(Context, model.ProcID, Payload) {}
func (bareHandler) OnTimer(Context, string)                  {}

func TestPayloadValueSemantics(t *testing.T) {
	data := []byte{1, 2, 3}
	p := Payload{Tag: "APP", Subject: 4, Data: data}
	q := p // payloads are copied by value between host layers...
	q.Tag = "OTHER"
	q.Subject = 5
	if p.Tag != "APP" || p.Subject != 4 {
		t.Errorf("payload copy mutated the original: %+v", p)
	}
	// ...but Data is a shared slice: hosts must not mutate it in place.
	q.Data[0] = 9
	if p.Data[0] != 9 {
		t.Error("Data is expected to alias (documented sharing); copy-on-write happened")
	}
}

// TestArenaCarvesDisjointCappedSlices: slices carved from one chunk do not
// overlap and cannot grow into each other; chunks start at 256 B and double
// to 4 KiB; an oversized request is served on its own without retiring the
// current chunk.
func TestArenaCarvesDisjointCappedSlices(t *testing.T) {
	var a Arena
	x, y := a.Alloc(25), a.Alloc(32)
	if len(a.free) != 256-25-32 {
		t.Errorf("%d B left after two small frames, want the rest of one 256 B chunk", len(a.free))
	}
	if len(x) != 25 || cap(x) != 25 || len(y) != 32 || cap(y) != 32 {
		t.Errorf("carved (len %d cap %d) and (len %d cap %d), want caps equal to lens", len(x), cap(x), len(y), cap(y))
	}
	x = append(x, 0xFF) // must reallocate, not write into y
	if y[0] != 0 {
		t.Error("appending to one frame wrote into its neighbour")
	}
	left := len(a.free)
	if big := a.Alloc(10000); len(big) != 10000 || len(a.free) != left {
		t.Errorf("oversized frame: len %d, %d B left in the chunk, want 10000 and %d (served on its own)", len(big), len(a.free), left)
	}
	// Each new chunk shows as a jump in what is left: 512, 1024, 2048, 4096,
	// and 4096 from there on.
	var chunks []int
	for len(chunks) < 6 {
		before := len(a.free)
		a.Alloc(100)
		if len(a.free) > before {
			chunks = append(chunks, len(a.free)+100)
		}
	}
	if want := []int{512, 1024, 2048, 4096, 4096, 4096}; !slices.Equal(chunks, want) {
		t.Errorf("chunk sizes after the first %v, want %v", chunks, want)
	}
}
