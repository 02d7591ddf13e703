package netadv

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
)

// FuzzReadPlan feeds arbitrary bytes through everything a plan file meets on
// its way into a run — ReadPlan, Validate, NewPlane, Decide, and the hosts'
// shared fate function — and requires that whatever Validate accepts is then
// safe to run: no panic, a process-fault schedule the hosts accept, no
// negative duplicate count or extra delay, exactly Copies() copies queued
// (one more with a replay), each naming the decision's own replacement or
// ghost payload or none, never a copy of a dropped message, and no copy
// queued beyond the 2⁶⁰ ticks host.MaxDelay keeps a run's clock below. A
// violated invariant is a bug in this package, not something for a host to
// clamp. Seeds: every authored example plan, every builtin as WritePlan
// renders it, and the plans whose ticks overflowed the clock.
func FuzzReadPlan(f *testing.F) {
	examples, err := filepath.Glob("../../examples/plans/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example plans to seed from (err %v)", err)
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, g := range Builtins() {
		var buf bytes.Buffer
		if err := WritePlan(&buf, g.Make(5, 2)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, o := range overflowPlans {
		var buf bytes.Buffer
		if err := WritePlan(&buf, o.plan); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	ticks := [...]int64{0, 1, 9, 10, 59, 60, 199, 200, 201, 1499, 1500, 40000, 1 << 40}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, n := range [...]int{2, 5} {
			if plan.Validate(n) != nil {
				continue
			}
			plane := NewPlane(plan, n, 7)
			var dec node.LinkDecision
			core := host.Core{
				Names: host.MetricNames("fuzz_"), Lifetimes: plan.Lifetimes(),
				Link: func(from, to model.ProcID, p node.Payload, at int64) node.LinkDecision {
					dec = plane.Decide(from, to, p, at)
					return dec
				},
			}
			core.Init("fuzz", n, nil) // panics on a lifetime Validate should have refused
			var copies []host.Copy
			var tally host.Tally
			for i := 0; i < 256; i++ {
				// i walks the n(n-1) links; the ticks and the payload class
				// move at other strides, so every link sees every tick.
				from := model.ProcID(i%n + 1)
				to := model.ProcID((int(from)+i/n%(n-1))%n + 1)
				p := node.Payload{Tag: "APP", Subject: to, Data: []byte{byte(i), 1, 2, 3}}
				if i%3 == 0 {
					p.Tag = "SUSP"
				}
				at := ticks[i%len(ticks)] + int64(i/len(ticks))
				copies = core.Route(&tally, at, 0, from, to, model.MsgID(i+1), p, copies)
				for k, c := range copies {
					if c.Extra < 0 {
						t.Fatalf("n=%d message %d (%d->%d at %d): copy queued %d ticks early: %+v", n, i, from, to, at, -c.Extra, dec)
					}
					if c.Extra > 1<<60 {
						t.Fatalf("n=%d message %d (%d->%d at %d): copy queued %d ticks late, past the clock's reach: %+v", n, i, from, to, at, c.Extra, dec)
					}
					// A copy carries no payload: it names the decision's own
					// replacement or ghost, or (nil) the payload sent.
					var wire *node.Payload
					switch {
					case dec.Replay != nil && k == len(copies)-1:
						wire = &dec.Replay.Payload
					case dec.Replace != nil:
						wire = &dec.Replace.Payload
					}
					if c.Wire != wire {
						t.Fatalf("n=%d message %d (%d->%d at %d): copy %d carries %p, want %p for decision %+v", n, i, from, to, at, k, c.Wire, wire, dec)
					}
				}
				want := dec.Copies()
				if dec.Replay != nil && !dec.Drop {
					want++
				}
				if dec.Duplicates < 0 || dec.ExtraDelay < 0 || len(copies) != want {
					t.Fatalf("n=%d message %d (%d->%d at %d): %d copies queued for decision %+v", n, i, from, to, at, len(copies), dec)
				}
			}
		}
	})
}
