package node

import (
	"sort"

	"failstop/internal/model"
)

// Table sizes: a table's first slot array, the records its first block
// carries (as many as those slots take three quarters full), and the most
// records one later chunk carries.
const (
	tableFirstSize = 8
	tableFirstRecs = 3 * tableFirstSize / 4
	tableMaxChunk  = 256
)

// Table maps process ids, or directed links between them, to records of type
// T: the per-peer and per-link state an interposer looks up for every message
// it handles. A key's home slot is the id itself, or from·(n+1)+to for a link
// of an n-process system, masked to the table's power-of-two size; a taken
// slot sends the search on to the next one. Nothing is hashed, so a full
// mesh's dense ids sit in their home slots, and the whole key is stored with
// its record, so a lookup stays exact for ids that are 0, negative or beyond
// n. The slot array doubles when it is three quarters full: a table's size
// follows the keys added to it, never n or the largest id.
//
// Records are handed out by pointer and never move, so a callback may hold
// one peer's record while a send it makes adds another peer. A table's first
// key makes one tableBlock: its first slot array and the chunk of records
// those slots can take, in one allocation. Later records are carved from
// chunks of at most tableMaxChunk, each as large as the slot array can still
// take, so adding a key seldom allocates and the records a table holds but
// has not handed out are at most one chunk. A grown slot array leaves the
// block's slots unused; its records stay where they are. A key is never
// removed: a table is dropped whole, by assigning a fresh one.
//
// The zero value is an empty table of ids; NewLinkTable makes a table of
// links. Not safe for concurrent use.
type Table[T any] struct {
	slots  []*entry[T] // nil: empty
	n      int         // keys held
	stride int         // a link's home slot is from·stride+to; 0 in a table of ids
	free   []entry[T]  // the current chunk's entries not yet handed out
}

// entry is one key and its record. A table of ids keys id's record (0, id).
type entry[T any] struct {
	a, b model.ProcID
	rec  T
}

// tableBlock is what a table's first key allocates: the first slot array and
// the first chunk of records.
type tableBlock[T any] struct {
	slots [tableFirstSize]*entry[T]
	recs  [tableFirstRecs]entry[T]
}

// NewLinkTable returns an empty table of the directed links of an n-process
// system.
func NewLinkTable[T any](n int) Table[T] { return Table[T]{stride: n + 1} }

// Len returns how many keys the table holds.
func (t *Table[T]) Len() int { return t.n }

// Get returns id's record, or nil if it has none.
func (t *Table[T]) Get(id model.ProcID) *T { return t.get(0, id) }

// Add returns id's record, adding a zero one if it has none; added reports
// whether it did.
func (t *Table[T]) Add(id model.ProcID) (rec *T, added bool) { return t.add(0, id) }

// GetLink returns the record of the link from → to, or nil if it has none.
func (t *Table[T]) GetLink(from, to model.ProcID) *T { return t.get(from, to) }

// AddLink returns the record of the link from → to, adding a zero one if it
// has none; added reports whether it did.
func (t *Table[T]) AddLink(from, to model.ProcID) (rec *T, added bool) { return t.add(from, to) }

// IDs appends the ids of a table of ids to dst in ascending order.
func (t *Table[T]) IDs(dst []model.ProcID) []model.ProcID {
	start := len(dst)
	for _, e := range t.slots {
		if e != nil {
			dst = append(dst, e.b)
		}
	}
	ids := dst[start:]
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return dst
}

func (t *Table[T]) get(a, b model.ProcID) *T {
	if t.n == 0 {
		return nil
	}
	if _, e := t.find(a, b); e != nil {
		return &e.rec
	}
	return nil
}

// find returns the slot holding (a, b) and its entry, or the empty slot
// where (a, b) belongs and nil. The slot array must not be full.
func (t *Table[T]) find(a, b model.ProcID) (int, *entry[T]) {
	mask := len(t.slots) - 1
	i := (int(a)*t.stride + int(b)) & mask
	for {
		e := t.slots[i]
		if e == nil || e.a == a && e.b == b {
			return i, e
		}
		i = (i + 1) & mask
	}
}

func (t *Table[T]) add(a, b model.ProcID) (*T, bool) {
	if len(t.slots) > 0 {
		i, e := t.find(a, b)
		if e != nil {
			return &e.rec, false
		}
		if 4*(t.n+1) <= 3*len(t.slots) {
			return t.put(i, a, b), true
		}
	}
	t.grow()
	i, _ := t.find(a, b)
	return t.put(i, a, b), true
}

// put stores (a, b) in the empty slot i with a zero record.
func (t *Table[T]) put(i int, a, b model.ProcID) *T {
	if len(t.free) == 0 {
		t.free = make([]entry[T], min(3*len(t.slots)/4-t.n, tableMaxChunk))
	}
	e := &t.free[0]
	t.free = t.free[1:]
	e.a, e.b = a, b
	t.slots[i] = e
	t.n++
	return &e.rec
}

// grow doubles the slot array and moves every entry to its slot there; an
// empty table takes its first block instead.
func (t *Table[T]) grow() {
	old := t.slots
	if len(old) == 0 {
		b := new(tableBlock[T])
		t.slots, t.free = b.slots[:], b.recs[:]
		return
	}
	t.slots = make([]*entry[T], 2*len(old))
	for _, e := range old {
		if e != nil {
			i, _ := t.find(e.a, e.b)
			t.slots[i] = e
		}
	}
}
