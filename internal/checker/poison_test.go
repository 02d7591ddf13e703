package checker_test

import (
	"fmt"
	"sync"
	"testing"

	"failstop/internal/checker"
	"failstop/internal/core"
	"failstop/internal/model"
)

// checkedAgain runs every entry point that reads a history through a
// borrowed reading and the pooled tables — All and WitnessProperty on the
// recorded run, the per-property functions on its abstraction — and returns
// the first that parts from want, AllOf over an owned scan.
func checkedAgain(r recorded, want []checker.Verdict) error {
	const tag = core.TagSusp
	ab := checker.Abstract(r.h, tag)
	for _, c := range []struct {
		name string
		got  []checker.Verdict
		want []checker.Verdict
	}{
		{"All", checker.All(r.h, tag, r.t), want},
		{"SFS", checker.SFS(ab), []checker.Verdict{want[0], want[2], want[3], want[4], want[5]}},
		{"FS", checker.FS(ab), want[:2]},
		{"one by one", []checker.Verdict{checker.FS1(ab), checker.FS2(ab), checker.SFS2a(ab), checker.SFS2b(ab),
			checker.SFS2c(ab), checker.SFS2d(ab), checker.Condition1(ab), checker.Condition2(ab), checker.Condition3(ab),
			checker.WitnessProperty(r.h, tag, r.t)}, want},
	} {
		if len(c.got) != len(c.want) {
			return fmt.Errorf("%s: %d verdicts, want %d", c.name, len(c.got), len(c.want))
		}
		for k := range c.want {
			if c.got[k] != c.want[k] {
				return fmt.Errorf("%s: verdict %d = %+v, want %+v", c.name, k, c.got[k], c.want[k])
			}
		}
	}
	return nil
}

// The checks trust nothing in the tables they draw: with the pooled tables
// filled with garbage before each history, every entry point gives the
// verdicts of AllOf over an owned scan, Property, Holds and Detail — drawn
// through the pool, and through the pool from eight goroutines at once.
// (The model's workspace and the Witness search are poisoned in hand too, in
// their own packages.)
func TestChecksFromPoisonedTables(t *testing.T) {
	corpus := readingCorpus(t)
	want := make([][]checker.Verdict, len(corpus))
	failing := 0
	for k, r := range corpus {
		want[k] = checker.AllOf(model.NewScan(r.h, core.TagSusp, checker.TransportTags(core.TagSusp)...), r.t)
		if _, ok := checker.AllHold(want[k]); !ok {
			failing++
		}
	}
	if failing == 0 || failing == len(corpus) {
		t.Fatalf("%d of %d corpus histories fail a property: the comparison misses a side", failing, len(corpus))
	}
	for k, r := range corpus {
		checker.PoisonTables(k)
		if err := checkedAgain(r, want[k]); err != nil {
			t.Fatalf("%s, through the pool: %v", r.name, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(corpus); k += 3 { // strides overlap: goroutines check the same histories
				checker.PoisonTables(k + g)
				if err := checkedAgain(corpus[k], want[k]); err != nil {
					errs <- fmt.Errorf("%s, goroutine %d: %v", corpus[k].name, g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
