package checker

import "failstop/internal/quorum"

// PoisonTables fills a pooled tables with garbage to its capacity, lengths
// wrong, and puts it back: what a check may draw after another check.
func PoisonTables(seed int) {
	tb := tablePool.Get().(*tables)
	tb.chain = append(tb.chain[:0], make([]int32, 60+seed)...)
	for i := range tb.chain {
		tb.chain[i] = int32(i*31 + seed + 1)
	}
	tb.chain = tb.chain[:seed%len(tb.chain)]
	tb.sets = append(tb.sets[:0], make([]quorum.Set, 40+seed)...)
	for i := range tb.sets {
		tb.sets[i] = quorum.SetOf(1, 2, 3)
	}
	tb.sets = tb.sets[:(seed*7)%len(tb.sets)]
	tablePool.Put(tb)
}
