package reliable

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
)

// flight is a frame on the wire of FuzzReliableFates' network.
type flight struct {
	at       int64
	order    int // frames due on one tick arrive in ascending order
	from, to model.ProcID
	p        node.Payload
}

// FuzzReliableFates runs a stubborn link between processes 3 and 9,000 of a
// 9,000-process system over the fake host, each side sending 12 payloads
// two ticks apart. The fuzzer's bytes pick the fate of each frame put on the
// wire, data and acks alike, by their value mod 6: delivered next tick,
// dropped, duplicated, delivered ahead of every frame in flight, parked
// until the heal, or delayed by the byte's value. Frames past the fuzzed
// prefix (at most 512 bytes) are delivered next tick, and the heal comes
// when the prefix is spent. Each inner handler must see the other side's
// payloads at most once and in send order, and all of them once the run
// quiesces.
func FuzzReliableFates(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 3, 2, 3, 4, 4, 0xF5, 0, 1, 3, 0x3B, 2})
	f.Add(bytes.Repeat([]byte{4}, 40))
	f.Add(bytes.Repeat([]byte{3, 0x41, 2}, 30))
	f.Fuzz(func(t *testing.T, fates []byte) {
		fates = fates[:min(len(fates), 512)]
		const k = 12
		type side struct {
			e       *Endpoint
			ctx     *fakeCtx
			rec     *recorder
			peer    model.ProcID
			timerAt map[string]int64
		}
		var sides [2]*side
		for i, id := range [2]model.ProcID{3, 9000} {
			ctx := newFakeCtx(id)
			ctx.n = 9000
			rec := &recorder{}
			sides[i] = &side{e: Wrap(rec, Options{Enabled: true}), ctx: ctx, rec: rec, timerAt: map[string]int64{}}
		}
		sides[0].peer, sides[1].peer = sides[1].ctx.self, sides[0].ctx.self
		payload := func(from model.ProcID, i int) node.Payload {
			return node.Payload{Tag: "APP", Data: []byte(fmt.Sprintf("%d:%02d", from, i))}
		}

		var (
			now            int64
			wire, parked   []flight
			order, fated   int
			injected       int
			delivered, ran int
		)
		heal := func() {
			for _, fl := range parked {
				fl.at = now + 1
				wire = append(wire, fl)
			}
			parked = nil
		}
		// put takes what a callback at s sent and set: frames onto the wire
		// under their fates, timers onto the clock.
		put := func(s *side) {
			for _, snd := range s.ctx.sends {
				order++
				fl := flight{at: now + 1, order: order, from: s.ctx.self, to: snd.to, p: snd.p}
				fate := byte(0)
				if fated < len(fates) {
					fate = fates[fated]
				}
				fated++
				switch fate % 6 {
				case 1: // dropped
					continue
				case 2: // duplicated
					order++
					wire = append(wire, flight{at: now + 1, order: order, from: fl.from, to: fl.to, p: fl.p})
				case 3: // ahead of every frame in flight
					fl.at, fl.order = now, -order
				case 4: // parked until the heal
					parked = append(parked, fl)
					continue
				case 5: // delayed
					fl.at += int64(fate)
				}
				wire = append(wire, fl)
			}
			s.ctx.sends = s.ctx.sends[:0]
			for name, d := range s.ctx.timers {
				s.timerAt[name] = now + max(d, 0)
				delete(s.ctx.timers, name)
			}
			if fated >= len(fates) {
				heal()
			}
		}

		for steps := 0; ; steps++ {
			if steps > 200_000 {
				t.Fatalf("no quiescence after %d events: %d frames in flight, %d parked", steps, len(wire), len(parked))
			}
			// The next event; on a tie an injection goes first, then a frame,
			// then a timer.
			kind, at := "", int64(0)
			if injected < k {
				kind, at = "inject", int64(2*(injected+1))
			}
			fi := -1
			for i, fl := range wire {
				if fi < 0 || fl.at < wire[fi].at || fl.at == wire[fi].at && fl.order < wire[fi].order {
					fi = i
				}
			}
			if fi >= 0 && (kind == "" || wire[fi].at < at) {
				kind, at = "frame", wire[fi].at
			}
			var ts *side
			var timer string
			for _, s := range sides {
				for name, due := range s.timerAt {
					if kind == "" || due < at {
						kind, at, ts, timer = "timer", due, s, name
					}
				}
			}
			if kind == "" {
				if len(parked) == 0 {
					break // quiescent
				}
				heal()
				continue
			}
			now = at
			switch kind {
			case "inject":
				injected++
				for _, s := range sides {
					s.ctx.now = now
					s.e.Context(s.ctx).Send(s.peer, payload(s.ctx.self, injected))
					put(s)
				}
			case "frame":
				fl := wire[fi]
				wire = slices.Delete(wire, fi, fi+1)
				s := sides[0]
				if fl.to != s.ctx.self {
					s = sides[1]
				}
				s.ctx.now = now
				if !s.e.Accepts(fl.from, fl.p) {
					t.Fatalf("process %d refused a frame with no inner gate to defer it", fl.to)
				}
				s.e.OnMessage(s.ctx, fl.from, fl.p)
				delivered++
				put(s)
			case "timer":
				delete(ts.timerAt, timer)
				ts.ctx.now = now
				ts.e.OnTimer(ts.ctx, timer)
				ran++
				put(ts)
			}
		}

		for _, s := range sides {
			var want, got []string
			for i := 1; i <= k; i++ {
				want = append(want, string(payload(s.peer, i).Data))
			}
			for i, p := range s.rec.released {
				if s.rec.from[i] != s.peer {
					t.Fatalf("process %d released a payload from %d", s.ctx.self, s.rec.from[i])
				}
				got = append(got, string(p.Data))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("process %d released %v after %d deliveries and %d retry timers, want %v", s.ctx.self, got, delivered, ran, want)
			}
		}
	})
}
