package node

import (
	"math/rand"
	"slices"
	"testing"

	"failstop/internal/model"
)

// tableModel is what a Table must behave like: a Go map from key to the
// record pointer Add handed out first.
type tableModel map[[2]model.ProcID]*int

// checkAgainst holds a table to its model: every modelled key is found with
// the pointer it was added with, probes in keys are absent exactly when the
// model lacks them, Len agrees and — for a table of ids — IDs lists the
// model's keys in ascending order.
func checkAgainst(t *testing.T, tb *Table[int], m tableModel, probes [][2]model.ProcID, ids bool) {
	t.Helper()
	if tb.Len() != len(m) {
		t.Fatalf("Len() = %d, model holds %d", tb.Len(), len(m))
	}
	for _, k := range probes {
		var got *int
		if ids {
			got = tb.Get(k[1])
		} else {
			got = tb.GetLink(k[0], k[1])
		}
		if want := m[k]; got != want {
			t.Fatalf("lookup of %v = %p, model says %p", k, got, want)
		}
	}
	if !ids {
		return
	}
	var want []model.ProcID
	for k := range m {
		want = append(want, k[1])
	}
	slices.Sort(want)
	if got := tb.IDs(nil); !slices.Equal(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
}

// TestTableMatchesMapOracle drives tables of ids and of links with random keys
// (dense, spread, 0, negative, huge), keys forced onto one home slot, and
// links whose from·(n+1)+to coincide, through every growth step; each record
// keeps its address and value, and absent keys stay absent.
func TestTableMatchesMapOracle(t *testing.T) {
	const n = 10
	colliding := func(k int) [2]model.ProcID { // every one has home slot 0 below 2¹⁶ slots
		return [2]model.ProcID{0, model.ProcID(k) << 16}
	}
	aliased := func(k int) [2]model.ProcID { // (k, n+1) and (k+1, 0) share from·(n+1)+to
		if k%2 == 0 {
			return [2]model.ProcID{model.ProcID(k / 2), n + 1}
		}
		return [2]model.ProcID{model.ProcID(k/2 + 1), 0}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, ids := range []bool{true, false} {
			tb := Table[int]{}
			if !ids {
				tb = NewLinkTable[int](n)
			}
			m := tableModel{}
			random := func() [2]model.ProcID {
				pick := func() model.ProcID {
					switch rng.Intn(5) {
					case 0:
						return model.ProcID(rng.Intn(n + 2)) // 0..n+1
					case 1:
						return -model.ProcID(rng.Intn(4)) // 0, -1, -2, -3
					case 2:
						return model.ProcID(rng.Intn(10_000) + 1)
					case 3:
						return model.ProcID(rng.Int63())
					default:
						return model.ProcID(-rng.Int63())
					}
				}
				if ids {
					return [2]model.ProcID{0, pick()}
				}
				return [2]model.ProcID{pick(), pick()}
			}
			var probes [][2]model.ProcID
			for step := 0; step < 600; step++ {
				var k [2]model.ProcID
				switch r := rng.Intn(4); {
				case r == 0:
					k = colliding(rng.Intn(40))
				case r == 1 && !ids:
					k = aliased(rng.Intn(40))
				default:
					k = random()
				}
				probes = append(probes, k, random()) // a random key is mostly absent
				var rec *int
				var added bool
				if ids {
					rec, added = tb.Add(k[1])
				} else {
					rec, added = tb.AddLink(k[0], k[1])
				}
				old, had := m[k]
				if added == had {
					t.Fatalf("seed %d step %d: Add(%v) added=%v, model had it: %v", seed, step, k, added, had)
				}
				if had && rec != old {
					t.Fatalf("seed %d step %d: Add(%v) moved the record %p → %p", seed, step, k, old, rec)
				}
				if added {
					if *rec != 0 {
						t.Fatalf("seed %d step %d: a new record holds %d, want 0", seed, step, *rec)
					}
					m[k] = rec
				}
				*rec = int(k[0])*31 + int(k[1])
				if step%50 == 0 {
					checkAgainst(t, &tb, m, probes, ids)
				}
			}
			checkAgainst(t, &tb, m, probes, ids)
			for k, rec := range m {
				if *rec != int(k[0])*31+int(k[1]) {
					t.Fatalf("seed %d: record of %v holds %d, another key's value", seed, k, *rec)
				}
			}
		}
	}
	var empty Table[int]
	if empty.Get(0) != nil || empty.Get(-1) != nil || empty.GetLink(1, 2) != nil || empty.Len() != 0 || len(empty.IDs(nil)) != 0 {
		t.Error("the zero Table is not empty")
	}
}

// TestTableFootprintFollowsKeys: slots and records grow with the keys added, not
// with their values — ids spread up to 100·2²⁴, near the top of int32, cost
// what dense ones do.
func TestTableFootprintFollowsKeys(t *testing.T) {
	for _, spread := range []model.ProcID{1, 10_000, 1 << 24} {
		var tb Table[[4]int64]
		for k := model.ProcID(1); k <= 100; k++ {
			tb.Add(k * spread)
		}
		if len(tb.slots) != 256 {
			t.Errorf("100 ids spaced %d apart: %d slots, want 256 (the first power of two that keeps them 3/4 full)", spread, len(tb.slots))
		}
		if held := tb.n + len(tb.free); held > 192 {
			t.Errorf("100 ids spaced %d apart: %d records made, want at most the 192 the slots can take", spread, held)
		}
	}
}

// TestTableMeshSitsHome: the ids of an n-process system, and the links of
// its full mesh, each sit in their home slot — found without probing.
func TestTableMeshSitsHome(t *testing.T) {
	for _, n := range []int{2, 10, 100} {
		var ids Table[int]
		links := NewLinkTable[int](n)
		for p := model.ProcID(1); int(p) <= n; p++ {
			ids.Add(p)
			for q := model.ProcID(1); int(q) <= n; q++ {
				if q != p {
					links.AddLink(p, q)
				}
			}
		}
		for p := model.ProcID(1); int(p) <= n; p++ {
			if i, _ := ids.find(0, p); i != int(p)&(len(ids.slots)-1) {
				t.Errorf("n=%d: id %d in slot %d, not its home", n, p, i)
			}
			for q := model.ProcID(1); int(q) <= n; q++ {
				if i, _ := links.find(p, q); q != p && i != (int(p)*(n+1)+int(q))&(len(links.slots)-1) {
					t.Errorf("n=%d: link %d->%d in slot %d, not its home", n, p, q, i)
				}
			}
		}
	}
}

// TestTableFirstKeyAllocBudget: a table's first key costs exactly one
// allocation, its tableBlock of first slots and records (two while the slot
// array and the records were made apart), for ids and for links alike; the
// other keys the block's records take cost none.
func TestTableFirstKeyAllocBudget(t *testing.T) {
	first := testing.AllocsPerRun(100, func() {
		var tb Table[[4]int64]
		tb.Add(7)
	})
	firstLink := testing.AllocsPerRun(100, func() {
		tb := NewLinkTable[[4]int64](10)
		tb.AddLink(3, 7)
	})
	block := testing.AllocsPerRun(100, func() {
		var tb Table[[4]int64]
		for id := model.ProcID(1); id <= tableFirstRecs; id++ {
			tb.Add(id)
		}
	})
	if first != 1 || firstLink != 1 || block != 1 {
		t.Errorf("first id %.0f allocations, first link %.0f, first %d ids %.0f; want 1 each",
			first, firstLink, tableFirstRecs, block)
	}
}

// TestTableFirstRecordsStay: records the first block handed out keep their
// address and value while 100 more keys grow the slot array past the block's.
func TestTableFirstRecordsStay(t *testing.T) {
	var tb Table[int]
	var early []*int
	for id := model.ProcID(1); id <= tableFirstRecs; id++ {
		rec, _ := tb.Add(id)
		*rec = int(id) * 10
		early = append(early, rec)
	}
	for id := model.ProcID(tableFirstRecs + 1); id <= tableFirstRecs+100; id++ {
		rec, _ := tb.Add(id)
		*rec = -int(id)
	}
	if len(tb.slots) <= tableFirstSize {
		t.Fatalf("%d keys left %d slots: the table never grew", tb.Len(), len(tb.slots))
	}
	for i, rec := range early {
		id := model.ProcID(i + 1)
		if got := tb.Get(id); got != rec || *rec != int(id)*10 {
			t.Errorf("id %d: record %p, want %p holding %d; that one holds %d", id, got, rec, int(id)*10, *rec)
		}
	}
}
