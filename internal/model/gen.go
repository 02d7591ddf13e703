package model

import "math/rand"

// Gen produces pseudo-random valid histories. It is used by property-based
// tests throughout the repository (happens-before oracles, validator
// invariants, rewriter stress tests) and by workload generators that need
// syntactically valid but semantically unconstrained executions.
//
// Histories produced by Gen always pass History.Validate: sends precede
// matching receives, channels are FIFO, crashed processes stop, and
// failed/crash events are single-shot. No sFS property is guaranteed —
// detections are placed arbitrarily, which is exactly what negative tests
// need.
type Gen struct {
	rng *rand.Rand
	// CrashWeight, FailedWeight, SendWeight, RecvWeight control the relative
	// frequency of generated event kinds. Zero values fall back to defaults.
	CrashWeight, FailedWeight, SendWeight, RecvWeight int
}

// NewGen returns a generator seeded deterministically.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

func (g *Gen) weights() (crash, failed, send, recv int) {
	crash, failed, send, recv = g.CrashWeight, g.FailedWeight, g.SendWeight, g.RecvWeight
	if crash == 0 {
		crash = 2
	}
	if failed == 0 {
		failed = 5
	}
	if send == 0 {
		send = 45
	}
	if recv == 0 {
		recv = 48
	}
	return crash, failed, send, recv
}

// History generates a valid history over n processes with approximately
// steps events. Tags are drawn from a small alphabet so that payload
// comparisons are exercised.
func (g *Gen) History(n, steps int) History {
	type chanKey struct{ from, to ProcID }
	inflight := make(map[chanKey][]Event) // queued sends not yet received
	var nonempty []chanKey                // channels with in-flight messages (may be stale)
	crashed := make(map[ProcID]bool, n)
	detected := make(map[[2]ProcID]bool)
	tags := [...]string{"APP", "SUSP", "HB", "DATA"}

	var h History
	var sent MsgID
	alive := func() []ProcID {
		out := make([]ProcID, 0, n)
		for p := ProcID(1); p <= ProcID(n); p++ {
			if !crashed[p] {
				out = append(out, p)
			}
		}
		return out
	}

	wCrash, wFailed, wSend, wRecv := g.weights()
	total := wCrash + wFailed + wSend + wRecv

	for len(h) < steps {
		live := alive()
		if len(live) == 0 {
			break
		}
		roll := g.rng.Intn(total)
		switch {
		case roll < wSend: // send
			from := live[g.rng.Intn(len(live))]
			to := ProcID(g.rng.Intn(n) + 1)
			if to == from {
				continue
			}
			sent++
			subject := ProcID(0)
			tag := tags[g.rng.Intn(len(tags))]
			if tag == "SUSP" {
				subject = ProcID(g.rng.Intn(n) + 1)
			}
			ev := Send(from, to, sent, tag, subject)
			h = append(h, ev)
			k := chanKey{from, to}
			if len(inflight[k]) == 0 {
				nonempty = append(nonempty, k)
			}
			inflight[k] = append(inflight[k], ev)
		case roll < wSend+wRecv: // receive
			if len(nonempty) == 0 {
				continue
			}
			ki := g.rng.Intn(len(nonempty))
			k := nonempty[ki]
			q := inflight[k]
			if len(q) == 0 || crashed[k.to] {
				// stale entry or dead receiver: drop from candidates
				nonempty[ki] = nonempty[len(nonempty)-1]
				nonempty = nonempty[:len(nonempty)-1]
				continue
			}
			s := q[0]
			inflight[k] = q[1:]
			h = append(h, Recv(k.to, k.from, s.Msg, s.Tag, s.Target))
		case roll < wSend+wRecv+wFailed: // failure detection
			i := live[g.rng.Intn(len(live))]
			j := ProcID(g.rng.Intn(n) + 1)
			if i == j {
				continue
			}
			key := [2]ProcID{i, j}
			if detected[key] {
				continue
			}
			detected[key] = true
			h = append(h, Failed(i, j))
		default: // crash
			if len(live) == 1 {
				continue
			}
			p := live[g.rng.Intn(len(live))]
			crashed[p] = true
			h = append(h, Crash(p))
		}
	}
	return h.Normalize()
}
