package sim

import (
	"math/rand"
	"testing"

	"failstop/internal/model"
	"failstop/internal/node"
)

// TestDelayStreamMatchesMathRand: delayRand is rand.New(rand.NewSource(seed))
// draw for draw — the seeds math/rand folds (negative, ≥ 2³¹−1, the ones that
// fold to zero), widths that take the mask, the modulus and the rejection loop
// — and one generator re-seeded over and over restarts each time.
func TestDelayStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1 << 31, 2 * (1<<31 - 1), -1 << 40, 1<<62 + 12345, 89482311}
	for k := uint64(1); k <= 200; k++ {
		seeds = append(seeds, int64(k*0x9E3779B97F4A7C15))
	}
	const draws = 2000
	var g delayRand
	for _, seed := range seeds {
		for _, w := range []int64{1, 2, 10, 15, 16, 1000, 1<<62 + 1} {
			std := rand.New(rand.NewSource(seed))
			g.reseed(seed)
			for i := 0; i < draws; i++ {
				if got, want := g.int63n(w), std.Int63n(w); got != want {
					t.Fatalf("seed %d: draw %d of Int63n(%d) = %d, math/rand's is %d", seed, i, w, got, want)
				}
			}
		}
		std := rand.New(rand.NewSource(seed))
		g.reseed(seed)
		for i := 0; i < draws; i++ {
			if got, want := g.uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d: 64-bit draw %d = %#x, math/rand's is %#x", seed, i, got, want)
			}
		}
	}
}

// TestDelayFnRunNeverSeeds: a run whose delays come from Config.Delay leaves
// the inherited register as it found it, and one on the default distribution
// fills it once — its generator ends where math/rand's is after one draw a
// message, which a second fill anywhere in the run would have moved.
func TestDelayFnRunNeverSeeds(t *testing.T) {
	drainPools()
	runFlood(4, 2, 1)
	g := lastBulk.Load().rng
	g.vec[0]++ // no seed's register
	stale := g.vec

	run := func(cfg Config) *Result {
		s := New(cfg)
		if s.rng != g {
			t.Fatal("New did not draw the bulk the run before retired")
		}
		for p := 1; p <= cfg.N; p++ {
			s.SetHandler(model.ProcID(p), &floodHandler{rounds: 3})
		}
		return s.Run()
	}
	res := run(Config{N: 6, Seed: 7, Delay: func(_, _ model.ProcID, _ node.Payload, _ int64) int64 { return 2 }})
	if res.Sent == 0 || g.filled || g.vec != stale {
		t.Errorf("a run of %d sends under a DelayFn: register filled = %v, rewritten = %v; want neither", res.Sent, g.filled, g.vec != stale)
	}

	res = run(Config{N: 6, Seed: 7})
	std := rand.New(rand.NewSource(7))
	for i := 0; i < res.Sent; i++ {
		std.Int63n(10)
	}
	if !g.filled {
		t.Fatal("a run on the default delays left the register unfilled")
	}
	for i := 0; i < 5; i++ {
		if got, want := g.uint64(), std.Uint64(); got != want {
			t.Fatalf("draw %d after the run's %d: %#x, math/rand's is %#x", i, res.Sent, got, want)
		}
	}
}
