package byz

import (
	"math/rand"
	"runtime"
	"testing"

	"failstop/internal/node"
)

// seqStream draws one sender's sequence numbers as a network and a Byzantine
// sender might deliver them: in-order runs, reorders within and beyond the
// window, duplicates of anything already drawn, permanent gaps, and 0, 1<<63
// and ^uint64(0) with their neighbours.
func seqStream(rng *rand.Rand, length int) []uint64 {
	var out []uint64
	next := uint64(1) // the lowest number the in-order runs have not reached
	for len(out) < length {
		switch rng.Intn(8) {
		case 0, 1: // an in-order run
			for k := rng.Intn(300); k > 0; k-- {
				out = append(out, next)
				next++
			}
		case 2: // a run reversed within the window, or across its edge
			k := uint64(rng.Intn(seqWindow + 40))
			for i := k; i > 0; i-- {
				out = append(out, next+i-1)
			}
			next += k
		case 3: // early numbers: some within the window, some beyond it
			for k := rng.Intn(20); k > 0; k-- {
				out = append(out, next+uint64(rng.Intn(3*seqWindow)))
			}
		case 4: // repeats of numbers already drawn
			for k := rng.Intn(10); k > 0 && len(out) > 0; k-- {
				out = append(out, out[rng.Intn(len(out))])
			}
		case 5: // a permanent gap
			next += uint64(rng.Intn(2 * seqWindow))
		case 6: // the numbers a sender may choose at the ends of the range
			specials := []uint64{0, 1, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0)}
			out = append(out, specials[rng.Intn(len(specials))])
		default: // a number behind the run, arrived or not
			if next > 1 {
				out = append(out, 1+uint64(rng.Int63n(int64(next-1))))
			}
		}
	}
	return out
}

// checkSeqSet holds s to the oracle: has answers alike over every number near
// the watermark and at the ends of the range, without moving the set, and
// only numbers beyond the window are in far.
func checkSeqSet(t *testing.T, s *seqSet, oracle map[uint64]struct{}) {
	t.Helper()
	before := *s
	nfar := len(s.far)
	probes := []uint64{0, 1, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0)}
	for v := s.low - min(s.low, 3); v <= s.low+3*seqWindow; v++ {
		probes = append(probes, v)
	}
	for _, v := range probes {
		if _, want := oracle[v]; s.has(v) != want {
			t.Fatalf("has(%d) = %v, the map says %v (watermark %d)", v, !want, want, s.low)
		}
	}
	if s.low != before.low || s.win != before.win || s.zero != before.zero || len(s.far) != nfar {
		t.Fatal("has moved the set")
	}
	for v := range s.far {
		if v <= s.low+seqWindow {
			t.Fatalf("%d is in far, within the window over watermark %d", v, s.low)
		}
	}
}

// TestSeqSetMatchesMapOracle drives the sequence window and a Go map with the
// same streams: has and add answer alike at every step, and a probe of every
// number near the watermark agrees throughout.
func TestSeqSetMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s seqSet
		oracle := map[uint64]struct{}{}
		for step, v := range seqStream(rng, 3000) {
			_, had := oracle[v]
			if got := s.has(v); got != had {
				t.Fatalf("seed %d step %d: has(%d) = %v, the map says %v", seed, step, v, got, had)
			}
			if added := s.add(v); added == had {
				t.Fatalf("seed %d step %d: add(%d) = %v, the map had it: %v", seed, step, v, added, had)
			}
			oracle[v] = struct{}{}
			if !s.has(v) {
				t.Fatalf("seed %d step %d: %d was added, has says no", seed, step, v)
			}
			if step%100 == 0 {
				checkSeqSet(t, &s, oracle)
			}
		}
		checkSeqSet(t, &s, oracle)
	}
}

// TestSeenWindowAllocBudget: 1,000 in-order frames from one sender cost the
// receiver's seen record nothing — no allocation on the whole receive path
// once the sender's record exists — and neither do numbers reversed within
// the window. A Go map per sender grew step by step over the same frames.
func TestSeenWindowAllocBudget(t *testing.T) {
	const frames = 1000
	app := node.Payload{Tag: "APP", Data: []byte(`{"round":1}`)}
	wire := make([][]byte, frames+1)
	for i := range wire {
		wire[i] = sealed(1, uint64(i)+1, uint64(i)+1, app)
	}
	sink := &benchSink{}
	ctx := benchCtx{self: 2}
	e := Wrap(sink, Options{Enabled: true})
	e.Init(ctx)
	e.OnMessage(ctx, 1, node.Payload{Tag: app.Tag, Data: wire[0]}) // makes sender 1's record
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range wire[1:] {
		e.OnMessage(ctx, 1, node.Payload{Tag: app.Tag, Data: body})
	}
	runtime.ReadMemStats(&after)
	if sink.delivered != frames+1 {
		t.Fatalf("released %d frames, want %d", sink.delivered, frames+1)
	}
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Errorf("%d in-order frames from one sender: %d allocations, want 0", frames, got)
	}
	if s := e.seen.Get(1); s.low != frames+1 || s.far != nil {
		t.Errorf("after %d in-order frames: watermark %d, far made: %v", frames+1, s.low, s.far != nil)
	}
	reversed := testing.AllocsPerRun(10, func() {
		var s seqSet
		for base := uint64(1); base <= frames; base += seqWindow {
			for v := base + seqWindow - 1; v >= base; v-- {
				s.add(v)
			}
		}
	})
	if reversed != 0 {
		t.Errorf("numbers reversed within the window: %.0f allocations, want 0", reversed)
	}
}
