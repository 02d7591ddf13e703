package quorum

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// poisonSearch fills every array of s with garbage to its capacity, leaves
// the lengths wrong and the scalars off: what a search may find in a state
// another search used.
func poisonSearch(s *search, seed int) {
	junk := func(n int) []int {
		out := make([]int, n, n+seed%5)
		for i := range out[:cap(out)] {
			out[:cap(out)][i] = i*31 - seed
		}
		return out[:(n*7+seed)%(n+1)]
	}
	s.kept, s.path = junk(40+seed), junk(9+seed)
	s.stack = make([]uint64, 50+seed)
	for i := range s.stack {
		s.stack[i] = ^uint64(i * seed)
	}
	s.stack = s.stack[:seed%len(s.stack)]
	s.fam, s.t, s.words, s.miss = []Set{SetOf(1)}, seed, seed*3-7, -seed
}

// searchJobs are the families the poisoned searches answer, each with its
// answer from a fresh state.
func searchJobs() (fams [][]Set, ts []int, want [][]int) {
	rng := rand.New(rand.NewSource(58))
	for round := 0; round < 150; round++ {
		fam := randomFamily(rng)
		for _, tt := range []int{1, 2, 3, len(fam)} {
			if tt <= len(fam) {
				fams, ts = append(fams, fam), append(ts, tt)
			}
		}
	}
	fams, ts = append(fams, intersectingFamily(51), EmptyIntersectionFamily(200, 3)), append(ts, 3, 3)
	for k, fam := range fams {
		want = append(want, new(search).run(fam, ts[k]))
	}
	return fams, ts, want
}

// The search trusts nothing in its pooled state: from one filled with
// garbage it finds what a fresh one finds — the state in hand, drawn through
// the pool, and through the pool from eight goroutines at once.
func TestSearchFromPoisonedState(t *testing.T) {
	fams, ts, want := searchJobs()
	found := 0
	s := new(search)
	for k, fam := range fams {
		poisonSearch(s, k)
		if got := s.run(fam, ts[k]); !slices.Equal(got, want[k]) {
			t.Fatalf("family %d (t = %d), state in hand: %v, want %v", k, ts[k], got, want[k])
		}
		if want[k] != nil {
			found++
		}
	}
	if found == 0 || found == len(fams) {
		t.Fatalf("%d of %d families have an empty subfamily: the comparison misses a side", found, len(fams))
	}
	for k, fam := range fams {
		p := searchPool.Get().(*search)
		poisonSearch(p, k+1)
		searchPool.Put(p)
		if got := EmptySubfamily(fam, ts[k]); !slices.Equal(got, want[k]) {
			t.Fatalf("family %d (t = %d), through the pool: %v, want %v", k, ts[k], got, want[k])
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(fams); k += 3 { // strides overlap: goroutines search the same families
				p := searchPool.Get().(*search)
				poisonSearch(p, k+g)
				searchPool.Put(p)
				if got := EmptySubfamily(fams[k], ts[k]); !slices.Equal(got, want[k]) {
					errs <- fmt.Errorf("family %d (t = %d), goroutine %d: %v, want %v", k, ts[k], g, got, want[k])
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
