//sfs:allow detwallclock the set driver stamps results with the date; it reaches no simulation

// Command bench is the repo's one committed benchmark: six named workloads
// run against the tree from the outside, end-to-end metrics with tracing
// off, per-layer metrics from a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		name    = fs.String("workload", "", "run this one workload in this process and print its result as the last line, one JSON object (default: run the whole set, one child process per workload and round)")
		seed    = fs.Int64("seed", 1, "workload seed: op i runs seed + i mod the workload's cycle")
		seconds = fs.Float64("seconds", 10, "how long one run measures")
		trace   = fs.Int("trace", 0, "with -workload: 0 = tracing off, end-to-end metrics; 1 = traced run, per-layer metrics")
		smoke   = fs.Bool("smoke", false, "smoke size: tiny inputs, one set-up, one repetition per probe")
		full    = fs.Bool("full", false, "with -workload: print the full result (sim_digest, sample count) instead of the driver's four keys")
		rounds  = fs.Int("rounds", 5, "whole set: untraced runs per workload; host-time metrics are medians over them")
		outPath = fs.String("out", "", "whole set: also write the result as JSON to this file")
		appendP = fs.String("append", "", "whole set: append one line (commit, date, nproc, Go version, end-to-end metrics) to this trajectory file")
		compare = fs.Bool("compare", false, "compare two -out files given as arguments: one row per (metric, workload)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p := runParams{seed: *seed, seconds: *seconds, smoke: *smoke}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(errw, "bench: -compare takes two result files")
			return 2
		}
		if err := compareFiles(out, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(errw, "bench: %v\n", err)
			return 1
		}
		return 0
	case *name != "":
		return runOne(out, errw, *name, p, *trace == 1, *full)
	}
	set, err := runSet(errw, p, *rounds)
	if err != nil {
		fmt.Fprintf(errw, "bench: %v\n", err)
		return 1
	}
	set.print(out)
	if *outPath != "" {
		if err := writeJSONFile(*outPath, set, false); err != nil {
			fmt.Fprintf(errw, "bench: %v\n", err)
			return 1
		}
	}
	if *appendP != "" {
		if err := writeJSONFile(*appendP, set.trajectoryLine(), true); err != nil {
			fmt.Fprintf(errw, "bench: %v\n", err)
			return 1
		}
	}
	if set.failed() > 0 {
		return 1
	}
	return 0
}

// driverLine is the last line of a single-workload run: exactly the keys
// the pipeline's driver reads.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload in this process: a process of its own is what
// makes peak RSS and GC state the workload's.
func runOne(out, errw io.Writer, name string, p runParams, traced, full bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(errw, "bench: unknown workload %q\n", name)
		return 2
	}
	var res *result
	var err error
	if traced {
		res, err = measureTraced(w, p)
	} else {
		res, err = measure(w, p)
	}
	if err != nil {
		fmt.Fprintf(errw, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if res.FirstErr != "" {
		fmt.Fprintf(errw, "bench: %s: %d of %d ops failed; first: %s\n", w.name, res.Failed, res.Attempted, res.FirstErr)
	}
	var line []byte
	if full {
		line, err = json.Marshal(res)
	} else {
		line, err = json.Marshal(driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
	}
	if err != nil {
		fmt.Fprintf(errw, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// setResult is one whole set: every workload, rounds untraced runs each and
// one traced run.
type setResult struct {
	Commit    string                     `json:"commit"`
	Date      string                     `json:"date"`
	NProc     int                        `json:"nproc"`
	GoVersion string                     `json:"go"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Rounds    int                        `json:"rounds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int    `json:"ops_attempted"`
	Failed    int    `json:"ops_failed"`
	Digest    string `json:"sim_digest"`
	Samples   int    `json:"samples"`
	// EndToEnd is, per metric, the median over the rounds (the maximum for
	// peak_rss_mb); Runs keeps every round's reading so that two sets can
	// be compared run against run.
	EndToEnd map[string]metric    `json:"end_to_end"`
	Runs     map[string][]float64 `json:"runs"`
	PerLayer map[string]metric    `json:"per_layer"`
}

// runSet re-executes this binary once per workload and round, so that slow
// stretches of the host spread over all six workloads and every run has a
// process of its own.
func runSet(errw io.Writer, p runParams, rounds int) (*setResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	child := func(w workload, traced bool) (*result, error) {
		args := []string{"-workload", w.name, "-full", "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds)}
		if traced {
			args = append(args, "-trace", "1")
		}
		if p.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = errw
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return nil, fmt.Errorf("%s: no result (%v, %v)", w.name, err, jerr)
		}
		return &res, nil
	}
	set := &setResult{
		Commit: gitCommit(), Date: time.Now().UTC().Format("2006-01-02"),
		NProc: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: p.seed, Seconds: p.seconds, Rounds: rounds,
		Workloads: map[string]*workloadResult{},
	}
	for _, w := range workloads {
		set.Workloads[w.name] = &workloadResult{Runs: map[string][]float64{}, EndToEnd: map[string]metric{}}
	}
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			fmt.Fprintf(errw, "bench: round %d/%d %s\n", r+1, rounds, w.name)
			res, err := child(w, false)
			if err != nil {
				return nil, err
			}
			wr := set.Workloads[w.name]
			if wr.Digest != "" && wr.Digest != res.Digest {
				return nil, fmt.Errorf("%s: sim_digest %s in round %d, %s before: the same seed must simulate the same runs", w.name, res.Digest, r+1, wr.Digest)
			}
			wr.Digest = res.Digest
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Samples += res.Samples
			for name, m := range res.Metrics {
				wr.Runs[name] = append(wr.Runs[name], m.Value)
				wr.EndToEnd[name] = metric{Unit: m.Unit}
			}
		}
	}
	for _, w := range workloads {
		fmt.Fprintf(errw, "bench: traced %s\n", w.name)
		res, err := child(w, true)
		if err != nil {
			return nil, err
		}
		wr := set.Workloads[w.name]
		if rounds > 0 && res.Digest != wr.Digest {
			return nil, fmt.Errorf("%s: traced sim_digest %s, untraced %s", w.name, res.Digest, wr.Digest)
		}
		wr.Failed += res.Failed
		wr.Attempted += res.Attempted
		wr.PerLayer = res.Metrics
		for name, m := range wr.EndToEnd {
			m.Value = median(wr.Runs[name])
			if name == "peak_rss_mb" {
				m.Value = percentile(wr.Runs[name], 1)
			}
			wr.EndToEnd[name] = m
		}
	}
	return set, nil
}

func (s *setResult) failed() (n int) {
	for _, wr := range s.Workloads {
		n += wr.Failed
	}
	return n
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSONFile(path string, v any, appendLine bool) error {
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	var data []byte
	var err error
	if appendLine {
		flags = os.O_WRONLY | os.O_CREATE | os.O_APPEND
		data, err = json.Marshal(v)
	} else {
		data, err = json.MarshalIndent(v, "", "  ")
	}
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
