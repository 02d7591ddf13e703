// CSV export of sweep reports, for charting outside the toolchain.
//
// The text report (Report.String) is built for eyeballs; the JSON report
// for lossless recombination. The CSV sits between them: one row per
// cell with the cell identity split into plottable columns (n, t,
// protocol, schedule, plan, ...) and every aggregate a chart might put
// on an axis — run tallies, percentiles, per-metric counts AND rates,
// observability totals, timeline peak summaries. Column order and float
// formatting are deterministic, so the CSV of a merged shard set is
// byte-identical to the unsharded sweep's.

package sweep

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"failstop/internal/sim"
)

// csvFloat renders a float the way the JSON encoder would: shortest
// round-trip form, so CSV and JSON artifacts agree on every value.
func csvFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteCSV writes one header row and one row per cell. Custom metrics
// contribute two columns each — the run count on which the metric was
// true and its rate over the cell's runs — because rates (false-suspicion
// probability, starvation probability) are what parameter-sweep charts
// actually plot. Observability counters and timeline-peak percentiles
// contribute one column per name, in sorted name order.
func (r *Report) WriteCSV(w io.Writer) error {
	var allMetrics []map[string]int
	var allObs []map[string]int64
	var allTs []map[string][]float64
	for i := range r.Cells {
		allMetrics = append(allMetrics, r.Cells[i].Metrics)
		allObs = append(allObs, r.Cells[i].Obs)
		allTs = append(allTs, r.Cells[i].TimeseriesSamples)
	}
	metrics := metricNames(allMetrics...)
	obsNames := metricNames(allObs...)
	tsNames := metricNames(allTs...)

	header := []string{
		"n", "t", "protocol", "quorum_delta", "schedule", "plan",
		"topo", "links", "fanout", "reliable", "recovery", "byzantine",
		"runs", "quiescent", "blocked_runs", "checked",
		"stop_drained", "stop_max_time", "stop_max_events",
	}
	for _, col := range columns {
		header = append(header, col.csv)
	}
	header = append(header,
		"events_p50", "events_p95", "events_p99", "events_p999", "events_max",
		"end_time_p50", "end_time_p95")
	for _, m := range metrics {
		header = append(header, "metric_"+m, "metric_"+m+"_rate")
	}
	for _, o := range obsNames {
		header = append(header, "obs_"+o)
	}
	for _, t := range tsNames {
		header = append(header, "ts_"+t+"_p50", "ts_"+t+"_p95", "ts_"+t+"_max")
	}

	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("sweep: writing CSV header: %w", err)
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		row := []string{
			strconv.Itoa(c.Cell.NT.N), strconv.Itoa(c.Cell.NT.T),
			fmt.Sprint(c.Cell.Protocol), strconv.Itoa(c.Cell.QuorumDelta),
			c.Cell.Schedule, c.Cell.Plan,
			c.Cell.Topo, strconv.FormatInt(c.Links, 10), strconv.Itoa(c.Fanout),
			strconv.FormatBool(c.Cell.Reliable),
			c.Cell.Recovery.String(), strconv.FormatBool(c.Cell.Byzantine),
			strconv.Itoa(c.Runs), strconv.Itoa(c.Quiescent),
			strconv.Itoa(c.BlockedRuns), strconv.Itoa(c.Checked),
			strconv.Itoa(c.Stops[sim.StopDrained]),
			strconv.Itoa(c.Stops[sim.StopMaxTime]),
			strconv.Itoa(c.Stops[sim.StopMaxEvents]),
		}
		for _, col := range columns {
			row = append(row, strconv.FormatInt(c.Obs[col.metric], 10))
		}
		row = append(row,
			csvFloat(c.Events.Median), csvFloat(c.Events.P95),
			csvFloat(c.Events.P99), csvFloat(c.Events.P999), csvFloat(c.Events.Max),
			csvFloat(c.EndTimes.Median), csvFloat(c.EndTimes.P95))
		for _, m := range metrics {
			n := c.Metrics[m]
			rate := 0.0
			if c.Runs > 0 {
				rate = float64(n) / float64(c.Runs)
			}
			row = append(row, strconv.Itoa(n), csvFloat(rate))
		}
		for _, o := range obsNames {
			row = append(row, strconv.FormatInt(c.Obs[o], 10))
		}
		for _, t := range tsNames {
			s := c.Timeseries[t]
			row = append(row, csvFloat(s.Median), csvFloat(s.P95), csvFloat(s.Max))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("sweep: writing CSV row for cell %v: %w", c.Cell, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("sweep: flushing CSV: %w", err)
	}
	return nil
}
