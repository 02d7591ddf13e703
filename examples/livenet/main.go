// Livenet: the quickstart scenario on the real goroutine runtime instead of
// the deterministic simulator — same protocol stack, same property checks,
// real concurrency and real clocks.
//
// Run with: go run ./examples/livenet
package main

//sfs:allow detwallclock live-runtime example: the whole point is real clocks; polling the cluster is paced by a ticker against a deadline timer

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"failstop"
)

func main() {
	// The scenario is the quickstart's Options; Live adds what only a live
	// host reads.
	cluster, err := failstop.NewLiveCluster(
		failstop.Options{N: 5, T: 2, Seed: 1, Metrics: failstop.NewMetricsRegistry()},
		failstop.Live{
			MinDelay: 200 * time.Microsecond,
			MaxDelay: 3 * time.Millisecond,
			// Serve live metrics over HTTP while the cluster runs; port 0
			// picks an ephemeral port, reported by cluster.MetricsAddr().
			MetricsAddr: "127.0.0.1:0",
		})
	if err == nil {
		err = cluster.Start()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer cluster.Stop()

	fmt.Println("live cluster of 5 goroutine-backed processes started")
	fmt.Printf("live metrics at http://%s/metrics\n", cluster.MetricsAddr())
	fmt.Println("injecting a false suspicion: process 2 suspects process 1")
	cluster.Suspect(2, 1)

	// Wait for every live process to detect the crash, polling on a ticker
	// rather than spinning on the clock, and give up after a timer-bounded
	// five seconds.
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
wait:
	for {
		h := cluster.History()
		if h.CrashIndex(1) >= 0 && allDetected(h) {
			break
		}
		select {
		case <-timeout.C:
			break wait
		case <-tick.C:
		}
	}

	// Scrape the endpoint the way Prometheus would, while the cluster is
	// still up, and show the counter lines.
	if resp, err := http.Get("http://" + cluster.MetricsAddr() + "/metrics"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Println("\nscraped /metrics:")
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if !strings.HasPrefix(line, "#") {
				fmt.Println("  " + line)
			}
		}
	}
	cluster.Stop()

	h := cluster.History()
	fmt.Printf("\nrecorded %d events; validating...\n", len(h))
	if err := h.Validate(); err != nil {
		fmt.Println("history INVALID:", err)
		return
	}
	ab := h.DropTags(failstop.DefaultSuspTag)
	fmt.Println("model-level history:")
	fmt.Print(ab)
	fmt.Println("\nsFS safety verdicts on this live (nondeterministic) schedule:")
	for _, v := range failstop.CheckSFS(ab) {
		if v.Property == "FS1" {
			continue // the live run stops at a wall-clock cutoff, not quiescence
		}
		fmt.Printf("  %s\n", v)
	}
	if _, err := failstop.RewriteToFS(ab); err == nil {
		fmt.Println("indistinguishability: isomorphic fail-stop run constructed and verified")
	} else {
		fmt.Println("indistinguishability FAILED:", err)
	}
}

func allDetected(h failstop.History) bool {
	for p := failstop.ProcID(2); p <= 5; p++ {
		if h.FailedIndex(p, 1) < 0 {
			return false
		}
	}
	return true
}
