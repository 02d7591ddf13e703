// Machine-readable sweep reports and shard recombination.
//
// A Report serializes losslessly to JSON: every aggregate a cell carries —
// including the sorted raw run-length samples behind its percentile
// summaries — round-trips, so a report written by one process (a CI shard
// job, a remote machine) can be merged by another into exactly the report
// a single unsharded sweep would have produced. Byte-identity of the
// merged text report against the unsharded one is asserted in tests and in
// the CI shard job; it is the determinism proof for the scale-out path.

package sweep

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serializes the report, indented, to w.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON deserializes a report written by WriteJSON.
func ReadJSON(r io.Reader) (*Report, error) {
	var rep Report
	dec := json.NewDecoder(r)
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("sweep: decoding report: %w", err)
	}
	return &rep, nil
}

// Merge recombines reports produced by runs of the same Spec differing
// only in Shard — the shards of one grid, in any order — into the report
// the unsharded sweep produces: identical cells, counters, percentiles,
// and String rendering. Only Workers is not reconstructed (it is
// execution bookkeeping with no unsharded equivalent) and is left 0.
//
// Merge rejects mismatches rather than guessing: reports must agree
// cell-for-cell on identity and order, and their Shard identities must
// cover a k-shard stream exactly — every index 0..k-1 once, no duplicated
// artifact, no missing shard — and every cell must carry one run-length
// sample per run, so a doubled, dropped or truncated shard file fails
// loudly instead of silently skewing every count and percentile.
func Merge(reports ...*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("sweep: Merge needs at least one report")
	}
	k := reports[0].Shard.Count
	if k < 1 {
		return nil, fmt.Errorf("sweep: report 0 carries no shard identity (shard count %d); was it written by sfs-sweep -json?", k)
	}
	if len(reports) != k {
		return nil, fmt.Errorf("sweep: got %d reports for a %d-shard stream (missing or extra shard files?)", len(reports), k)
	}
	seen := make([]bool, k)
	for i, r := range reports {
		sh := r.Shard
		if sh.Count != k {
			return nil, fmt.Errorf("sweep: report %d is shard %d/%d, report 0 is of a %d-shard stream", i, sh.Index, sh.Count, k)
		}
		if sh.Index < 0 || sh.Index >= k {
			return nil, fmt.Errorf("sweep: report %d has shard index %d out of range [0, %d)", i, sh.Index, k)
		}
		if seen[sh.Index] {
			return nil, fmt.Errorf("sweep: shard %d/%d appears twice (duplicated report file?)", sh.Index, k)
		}
		seen[sh.Index] = true
		for j := range r.Cells {
			// Percentiles come from the samples, tallies from Runs: a file
			// where they disagree would merge into a report that does too.
			c := &r.Cells[j]
			if len(c.EventSamples) != c.Runs || len(c.EndTimeSamples) != c.Runs {
				return nil, fmt.Errorf("sweep: report %d cell %d (%v) has %d runs but %d event samples and %d end-time samples (truncated or edited file?)",
					i, j, c.Cell, c.Runs, len(c.EventSamples), len(c.EndTimeSamples))
			}
		}
	}
	base := reports[0].Cells
	for i, r := range reports[1:] {
		if len(r.Cells) != len(base) {
			return nil, fmt.Errorf("sweep: report %d has %d cells, report 0 has %d (different specs?)",
				i+1, len(r.Cells), len(base))
		}
		for j := range r.Cells {
			if r.Cells[j].Cell != base[j].Cell {
				return nil, fmt.Errorf("sweep: report %d cell %d is %v, report 0 has %v (different specs?)",
					i+1, j, r.Cells[j].Cell, base[j].Cell)
			}
		}
	}
	// The merged report covers the whole stream: its shard identity is the
	// unsharded one, which is also what makes it merge-equal (and
	// DeepEqual) to a sweep run without sharding.
	out := &Report{Shard: Shard{Index: 0, Count: 1}}
	out.fold(len(base), k,
		func(j int) CellResult { return newCellResult(base[j].Cell, base[j].Links, base[j].Fanout, 0) },
		func(j, i int) *CellResult { return &reports[i].Cells[j] })
	return out, nil
}
