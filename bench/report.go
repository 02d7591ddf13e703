package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place that lists the workloads and
// metrics with their units, directions and regression bounds. The harness
// reads it for -compare and the test suite checks the harness's output
// against it, so names and units cannot drift apart.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory or its parent:
// the benchmark is run from the root of a checkout or from bench/ itself.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print renders the set: every end-to-end metric by name with its unit, one
// column per workload, then the per-layer metrics of each workload's traced
// run.
func (s *setResult) print(w io.Writer) {
	fmt.Fprintf(w, "commit %s  %s  nproc %d  %s  seed %d  %d rounds of %gs\n\n",
		s.Commit, s.Date, s.NProc, s.GoVersion, s.Seed, s.Rounds, s.Seconds)
	fmt.Fprintf(w, "%-22s %-6s", "end-to-end", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %17s", wl.name)
	}
	fmt.Fprintln(w)
	first := s.Workloads[workloads[0].name]
	for _, name := range sortedKeys(first.EndToEnd) {
		fmt.Fprintf(w, "%-22s %-6s", name, first.EndToEnd[name].Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %17.6g", s.Workloads[wl.name].EndToEnd[name].Value)
		}
		fmt.Fprintln(w)
	}
	row := func(label string, cell func(*workloadResult) string) {
		fmt.Fprintf(w, "%-22s %-6s", label, "")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %17s", cell(s.Workloads[wl.name]))
		}
		fmt.Fprintln(w)
	}
	row("round_spread", func(wr *workloadResult) string {
		// (max − min) / median of runs_per_s over the rounds: how far the
		// host itself moved between identical runs.
		r := wr.Runs["runs_per_s"]
		if len(r) == 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", ratio(slices.Max(r)-slices.Min(r), median(r)))
	})
	row("samples (op_ms_p50)", func(wr *workloadResult) string { return fmt.Sprint(wr.Samples) })
	row("ops_attempted", func(wr *workloadResult) string { return fmt.Sprint(wr.Attempted) })
	row("ops_failed", func(wr *workloadResult) string { return fmt.Sprint(wr.Failed) })
	row("sim_digest", func(wr *workloadResult) string { return wr.Digest })

	fmt.Fprintf(w, "\n%-40s %-6s", "per-layer (traced run)", "unit")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %17s", wl.name)
	}
	fmt.Fprintln(w)
	for _, name := range sortedKeys(first.PerLayer) {
		fmt.Fprintf(w, "%-40s %-6s", name, first.PerLayer[name].Unit)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %17.6g", s.Workloads[wl.name].PerLayer[name].Value)
		}
		fmt.Fprintln(w)
	}
}

// trajectoryLine is the set reduced to what bench/trajectory.jsonl keeps per
// commit: where and when it ran, and every end-to-end metric per workload.
func (s *setResult) trajectoryLine() any {
	type line struct {
		Commit    string                        `json:"commit"`
		Date      string                        `json:"date"`
		NProc     int                           `json:"nproc"`
		GoVersion string                        `json:"go"`
		Seed      int64                         `json:"seed"`
		Seconds   float64                       `json:"seconds"`
		Rounds    int                           `json:"rounds"`
		EndToEnd  map[string]map[string]float64 `json:"end_to_end"`
		Digests   map[string]string             `json:"sim_digest"`
	}
	l := line{
		Commit: s.Commit, Date: s.Date, NProc: s.NProc, GoVersion: s.GoVersion,
		Seed: s.Seed, Seconds: s.Seconds, Rounds: s.Rounds,
		EndToEnd: map[string]map[string]float64{}, Digests: map[string]string{},
	}
	for name, wr := range s.Workloads {
		l.EndToEnd[name] = map[string]float64{}
		for m, v := range wr.EndToEnd {
			l.EndToEnd[name][m] = v.Value
		}
		l.Digests[name] = wr.Digest
	}
	return l
}

// compareFiles prints one row per (end-to-end metric, workload) of two -out
// files of the same benchmark: the change from a to b as a share of a, the
// bound BENCHMARK.json fixes, and a verdict. A metric whose run-to-run
// spread (interquartile range over median, on either side) is wider than
// its bound is unresolved rather than ok, unless every run of b reads better
// than every run of a.
func compareFiles(w io.Writer, pathA, pathB string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	load := func(path string) (*setResult, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s setResult
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s (%s)   b: %s (%s)\n", pathA, a.Commit, pathB, b.Commit)
	fmt.Fprintf(w, "%-18s %-18s %14s %14s %9s %7s  %s\n", "metric", "workload", "a", "b", "change", "bound", "verdict")
	for _, m := range spec.EndToEnd {
		for _, wl := range spec.Workloads {
			wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
			if wa == nil || wb == nil {
				continue
			}
			va, vb := wa.EndToEnd[m.Name].Value, wb.EndToEnd[m.Name].Value
			worse := ratio(vb-va, va) // share of a by which b is worse
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "%-18s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				m.Name, wl.Name, va, vb, 100*ratio(vb-va, va), 100*m.Bound,
				verdict(worse, m, wa.Runs[m.Name], wb.Runs[m.Name]))
		}
	}
	for _, wl := range spec.Workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa != nil && wb != nil && a.Seed == b.Seed && wa.Digest != wb.Digest {
			fmt.Fprintf(w, "sim_digest differs on %s: %s -> %s (a host-time gain must leave every simulated statistic identical)\n", wl.Name, wa.Digest, wb.Digest)
		}
	}
	return nil
}

func verdict(worse float64, m metricSpec, runsA, runsB []float64) string {
	spread := func(xs []float64) float64 {
		return ratio(percentile(xs, 0.75)-percentile(xs, 0.25), median(xs))
	}
	if max(spread(runsA), spread(runsB)) > m.Bound {
		allBetter := len(runsA) > 0 && len(runsB) > 0
		for _, x := range runsB {
			for _, y := range runsA {
				if (m.Better == "higher" && x <= y) || (m.Better != "higher" && x >= y) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > m.Bound {
		return "worse"
	}
	return "ok"
}
