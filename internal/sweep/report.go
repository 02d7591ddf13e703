package sweep

import (
	"fmt"
	"sort"
	"strings"

	"failstop/internal/checker"
	"failstop/internal/recovery"
	"failstop/internal/sim"
	"failstop/internal/stats"
)

// Properties lists the checker's properties in presentation order, as
// produced by checker.All.
var Properties = []string{
	"FS1", "FS2",
	"sFS2a", "sFS2b", "sFS2c", "sFS2d",
	"Condition1", "Condition2", "Condition3",
	"W",
}

// CellResult aggregates every run of one cell. The serialized form is the
// shard report format cmd/sfs-sweep emits with -json and recombines with
// -merge; every field carries an explicit tag so the wire format cannot
// drift when fields are added or renamed.
//
//sfs:wire
type CellResult struct {
	Cell Cell `json:"cell"`
	// Links is the directed link count of the cell's topology — the
	// footprint a fully-exercised network would lazily materialize:
	// n(n-1) for the complete graph, the adjacency size for partial
	// topologies. Fanout is the gossip sample fanout (0 for the other
	// kinds). Both are static properties of (topology, n), recorded so
	// large-N reports carry their own scale columns.
	Links  int64 `json:"links,omitempty"`
	Fanout int   `json:"fanout,omitempty"`
	// Runs is the number of runs executed for the cell.
	Runs int `json:"runs"`
	// Stops tallies runs by stop reason.
	Stops map[sim.StopReason]int `json:"stops"`
	// Quiescent counts fully drained runs (no horizon, nothing stuck in
	// gated or parked channels).
	Quiescent int `json:"quiescent"`
	// BlockedRuns counts runs that ended with messages stuck in gated or
	// parked channels (undelivered traffic to live processes).
	BlockedRuns int `json:"blocked_runs"`
	// Checked counts runs whose history went through the checker (the
	// quiescent runs, when Spec.Check is set).
	Checked int `json:"checked"`
	// Holds counts, per property, the checked runs on which it held.
	Holds map[string]int `json:"holds"`
	// Metrics counts, per custom metric, the runs on which it was true.
	Metrics map[string]int `json:"metrics"`
	// Obs totals the runs' observability counters (the simulator's
	// snapshot merged, under a fault plan, with the fault plane's) over
	// all runs of the cell, keyed by metric name. It is the one place a
	// counter total lives: every counter column of the report reads it
	// (see columns).
	Obs map[string]int64 `json:"obs"`
	// Events and EndTimes summarize run length in events and virtual time.
	Events   stats.Summary `json:"events"`
	EndTimes stats.Summary `json:"end_times"`
	// EventSamples and EndTimeSamples are the raw per-run samples behind
	// Events and EndTimes, sorted ascending. Retaining them is what lets
	// Merge recombine shard reports into exact percentiles: summaries
	// cannot be merged, sample sets can.
	EventSamples   []float64 `json:"event_samples"`
	EndTimeSamples []float64 `json:"end_time_samples"`
	// Timeseries summarizes, per timeline series name, the distribution
	// of per-run peak values over the cell's runs (populated when
	// Spec.Timeline is set). TimeseriesSamples retains the raw sorted
	// peaks behind each summary, for the same reason EventSamples exists:
	// sample sets merge across shards, summaries do not.
	Timeseries        map[string]stats.Summary `json:"timeseries"`
	TimeseriesSamples map[string][]float64     `json:"timeseries_samples"`
}

// HoldsAll reports whether prop held on every checked run of the cell.
func (c *CellResult) HoldsAll(prop string) bool {
	return c.Checked > 0 && c.Holds[prop] == c.Checked
}

// MetricAll reports whether the named metric was true on every run.
func (c *CellResult) MetricAll(name string) bool {
	return c.Runs > 0 && c.Metrics[name] == c.Runs
}

// MetricNone reports whether the named metric was false on every run.
func (c *CellResult) MetricNone(name string) bool {
	return c.Runs > 0 && c.Metrics[name] == 0
}

// Report is the aggregated outcome of a sweep.
//
//sfs:wire
type Report struct {
	// Cells holds one aggregate per cell, in Spec.Cells order.
	Cells []CellResult `json:"cells"`
	// Runs is the total number of runs executed.
	Runs int `json:"runs"`
	// Shard records which slice of the job stream this report covers
	// ({0, 1} for an unsharded sweep, and for a merged set of shards).
	// Merge uses it to refuse duplicated, overlapping, or missing shards.
	Shard Shard `json:"shard"`
	// Workers is the worker-pool size that executed the sweep.
	Workers int `json:"workers"`
}

// Cell returns the aggregate for the given cell identity, or nil.
func (r *Report) Cell(c Cell) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Cell == c {
			return &r.Cells[i]
		}
	}
	return nil
}

// TotalHolds sums per-property verdict counts and checked-run counts over
// every cell — the sweep-wide Figure 1 style tally.
func (r *Report) TotalHolds() (holds map[string]int, checked int) {
	holds = map[string]int{}
	for i := range r.Cells {
		//sfs:allow detmaprange commutative sum into a map; callers render via the sorted Properties list
		for p, n := range r.Cells[i].Holds {
			holds[p] += n
		}
		checked += r.Cells[i].Checked
	}
	return holds, checked
}

// PropertyTable renders the sweep-wide verdict tally: one row per checked
// property with the count and percentage of checked runs on which it held.
func (r *Report) PropertyTable() string {
	holds, checked := r.TotalHolds()
	tbl := stats.NewTable("property", "runs holding", "checked runs", "pct")
	for _, prop := range Properties {
		n, present := holds[prop]
		if !present && checked == 0 {
			continue
		}
		pct := 0.0
		if checked > 0 {
			pct = 100 * float64(n) / float64(checked)
		}
		tbl.Row(prop, n, checked, pct)
	}
	return tbl.String()
}

// group names what some cell of a report must have run with for a
// column to show in the text table (the CSV always carries every column).
type group int

const (
	groupPlan     group = iota // a network fault plan
	groupReliable              // the reliable-delivery layer
	groupRecovery              // a recovering crash-recovery mode
	groupByz                   // the validation interposer, or a plan that injected Byzantine faults
	numGroups
)

// column is one per-cell counter of the report, read from CellResult.Obs.
// The table is the one place a counter is named: a metric some layer
// already exports becomes a text and CSV column by adding a row.
type column struct {
	metric  string // key in CellResult.Obs
	heading string // CellTable heading
	csv     string // WriteCSV column name
	group   group
}

var columns = []column{
	{"sim_dropped_total", "dropped", "dropped", groupPlan},
	{"sim_duplicated_total", "duplicated", "duplicated", groupPlan},
	{"reliable_retransmits_total", "retransmits", "retransmits", groupReliable},
	{"reliable_acked_duplicates_total", "acked-dup", "acked_duplicates", groupReliable},
	{"sim_plan_crashes_total", "crashes", "plan_crashes", groupRecovery},
	{"sim_restarts_total", "restarts", "restarts", groupRecovery},
	{"sim_recovered_total", "recovered", "recovered", groupRecovery},
	{"byz_detected_total", "byz-detected", "byz_detected", groupByz},
	{"byz_masked_total", "byz-masked", "byz_masked", groupByz},
	{"plane_byz_corrupted_total", "corrupted", "corrupted", groupByz},
	{"plane_byz_equivocated_total", "equivocated", "equivocated", groupByz},
	{"plane_byz_replayed_total", "replayed", "replayed", groupByz},
}

// groups reports which column groups the report's cells light.
func (r *Report) groups() (lit [numGroups]bool) {
	for i := range r.Cells {
		c := &r.Cells[i]
		lit[groupPlan] = lit[groupPlan] || c.Cell.Plan != ""
		lit[groupReliable] = lit[groupReliable] || c.Cell.Reliable
		lit[groupRecovery] = lit[groupRecovery] || c.Cell.Recovery != recovery.Off
		lit[groupByz] = lit[groupByz] || c.Cell.Byzantine
		for _, col := range columns {
			// The interposer's own counters are zero without it, so this
			// is the plan's injections showing with the interposer off.
			if col.group == groupByz && c.Obs[col.metric] > 0 {
				lit[groupByz] = true
			}
		}
	}
	return lit
}

// CellTable renders one row per cell: outcome tallies, event-count
// percentiles, topology scale (when any cell ran a partial topology), the
// counter columns whose group some cell lights, and any custom metrics.
func (r *Report) CellTable() string {
	var allMetrics []map[string]int
	topos := false
	for i := range r.Cells {
		allMetrics = append(allMetrics, r.Cells[i].Metrics)
		if r.Cells[i].Cell.Topo != "" {
			topos = true
		}
	}
	names := metricNames(allMetrics...)
	lit := r.groups()
	headers := []string{"cell", "runs", "quiescent", "blocked", "max-time", "max-events", "events p50", "events p95"}
	if topos {
		headers = append(headers, "links", "fanout")
	}
	for _, col := range columns {
		if lit[col.group] {
			headers = append(headers, col.heading)
		}
	}
	headers = append(headers, names...)
	tbl := stats.NewTable(headers...)
	for i := range r.Cells {
		c := &r.Cells[i]
		row := []any{
			c.Cell.String(), c.Runs, c.Quiescent, c.BlockedRuns,
			c.Stops[sim.StopMaxTime], c.Stops[sim.StopMaxEvents],
			c.Events.Median, c.Events.P95,
		}
		if topos {
			row = append(row, c.Links, c.Fanout)
		}
		for _, col := range columns {
			if lit[col.group] {
				row = append(row, c.Obs[col.metric])
			}
		}
		for _, m := range names {
			row = append(row, fmt.Sprintf("%d/%d", c.Metrics[m], c.Runs))
		}
		tbl.Row(row...)
	}
	return tbl.String()
}

// String renders the full report: header, per-cell table, and — when any
// run was checked — the sweep-wide property tally.
func (r *Report) String() string {
	var b strings.Builder
	// Workers is deliberately not rendered: the text report of a merged
	// set of shard reports must be byte-identical to the unsharded one,
	// and worker counts are execution bookkeeping, not results.
	fmt.Fprintf(&b, "sweep: %d runs over %d cells\n", r.Runs, len(r.Cells))
	b.WriteString(r.CellTable())
	if _, checked := r.TotalHolds(); checked > 0 {
		b.WriteString("\nproperty verdicts over quiescent runs:\n")
		b.WriteString(r.PropertyTable())
	}
	return b.String()
}

// newCellResult opens an empty aggregate for one cell. A CellResult under
// construction is the engine's accumulator: each worker owns a private set
// (no locking on the add path), sets combine with merge — commutative and
// associative over everything it touches — and finalize derives the rest,
// so the published CellResult is independent of which worker ran which
// job. sampleHint presizes the run-length sample slices.
func newCellResult(cell Cell, links int64, fanout, sampleHint int) CellResult {
	return CellResult{
		Cell:              cell,
		Links:             links,
		Fanout:            fanout,
		Stops:             make(map[sim.StopReason]int, 3),
		Holds:             make(map[string]int, len(Properties)),
		Metrics:           map[string]int{},
		Obs:               map[string]int64{},
		TimeseriesSamples: map[string][]float64{},
		EventSamples:      make([]float64, 0, sampleHint),
		EndTimeSamples:    make([]float64, 0, sampleHint),
	}
}

// add folds one run into the aggregate; verdicts is nil for an unchecked
// run.
func (c *CellResult) add(out RunOutput, verdicts []checker.Verdict) {
	res := out.Result
	c.Runs++
	c.Stops[res.Stop]++
	if res.Quiescent() {
		c.Quiescent++
	}
	if res.BlockedLive() {
		c.BlockedRuns++
	}
	if verdicts != nil {
		c.Checked++
		for _, v := range verdicts {
			if v.Holds {
				c.Holds[v.Property]++
			}
		}
	}
	//sfs:allow detmaprange commutative tally into a map; rendering sorts via metricNames
	for name, val := range out.Metrics {
		if val {
			c.Metrics[name]++
		} else {
			c.Metrics[name] += 0 // record the name so 0-counts render
		}
	}
	// out.Obs is a sorted slice, res.Timeline a name-sorted snapshot: both
	// iterate deterministically.
	for _, m := range out.Obs {
		c.Obs[m.Name] += m.Value
	}
	for _, s := range res.Timeline {
		c.TimeseriesSamples[s.Name] = append(c.TimeseriesSamples[s.Name], s.Peak)
	}
	c.EventSamples = append(c.EventSamples, float64(len(res.History)))
	c.EndTimeSamples = append(c.EndTimeSamples, float64(res.EndTime))
}

// merge folds b — another worker's aggregate, or a finalized one read back
// from a shard file — into c. Everything folded is a commutative sum (map
// keys union; samples concatenate and are sorted by finalize), so merging
// in any order produces the same CellResult. What finalize derives is not
// read from b.
func (c *CellResult) merge(b *CellResult) {
	c.Runs += b.Runs
	//sfs:allow detmaprange commutative sum into a map; emission renders by keyed lookup
	for k, v := range b.Stops {
		c.Stops[k] += v
	}
	c.Quiescent += b.Quiescent
	c.BlockedRuns += b.BlockedRuns
	c.Checked += b.Checked
	//sfs:allow detmaprange commutative sum into a map; emission renders via the sorted Properties list
	for k, v := range b.Holds {
		c.Holds[k] += v
	}
	//sfs:allow detmaprange commutative sum into a map; rendering sorts via metricNames
	for k, v := range b.Metrics {
		c.Metrics[k] += v
	}
	//sfs:allow detmaprange commutative sum into a map; rendering sorts via metricNames
	for k, v := range b.Obs {
		c.Obs[k] += v
	}
	//sfs:allow detmaprange keyed sample-set concatenation; finalize sorts every set before publishing
	for k, v := range b.TimeseriesSamples {
		c.TimeseriesSamples[k] = append(c.TimeseriesSamples[k], v...)
	}
	c.EventSamples = append(c.EventSamples, b.EventSamples...)
	c.EndTimeSamples = append(c.EndTimeSamples, b.EndTimeSamples...)
}

// fold sets r's n cells — each open(i), merged with every non-nil part(i, k),
// k < parts, and finalized — and their Runs: Run's fold and Merge's.
func (r *Report) fold(n, parts int, open func(i int) CellResult, part func(i, k int) *CellResult) {
	r.Cells = make([]CellResult, n)
	for i := range r.Cells {
		c := &r.Cells[i]
		*c = open(i)
		for k := 0; k < parts; k++ {
			if p := part(i, k); p != nil {
				c.merge(p)
			}
		}
		c.finalize()
		r.Runs += c.Runs
	}
}

// finalize derives what add and merge leave alone: the sample summaries.
// Samples are sorted here — not in arrival order — so the published
// CellResult (and anything derived from it, like a shard report on disk)
// is identical no matter how jobs were scheduled across workers.
func (c *CellResult) finalize() {
	sort.Float64s(c.EventSamples)
	sort.Float64s(c.EndTimeSamples)
	c.Events = stats.Summarize(c.EventSamples)
	c.EndTimes = stats.Summarize(c.EndTimeSamples)
	c.Timeseries = make(map[string]stats.Summary, len(c.TimeseriesSamples))
	//sfs:allow detmaprange per-key sort and summarize; keyed output is independent of visit order
	for name, samples := range c.TimeseriesSamples {
		sort.Float64s(samples)
		c.Timeseries[name] = stats.Summarize(samples)
	}
}
