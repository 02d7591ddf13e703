package main

import (
	"fmt"
	"slices"
	"time"
)

// measureTraced is the traced run of one workload: every per-layer metric,
// those of the workload's own traced loop and those of the probes.
func measureTraced(w workload, p runParams) (*result, error) {
	res, err := traceWorkload(w, p)
	if err != nil {
		return nil, err
	}
	if err := runProbes(res, p); err != nil {
		return nil, err
	}
	return res, nil
}

// traceWorkload spends three tenths of the time untraced, for the baseline
// the tracing overhead is stated against, and the rest with a timing shim at
// every public seam. The two loops turn over the same seeds, and their
// sim_digests must agree: that is the proof that the shims (and the bench's
// own assembly of the stack) change nothing simulated.
func traceWorkload(w workload, p runParams) (*result, error) {
	host := newHostSpeed(p.smoke)
	op, _, err := setUp(w, p, host)
	if err != nil {
		return nil, err
	}
	cycle := w.cycleFor(p)
	budget := time.Duration(p.seconds * float64(time.Second))
	base := loop(op, cycle, p, budget*3/10, host, nil)
	tr := newTracer()
	traced := loop(op, cycle, p, budget*7/10, host, tr)

	res := newResult(w, p, true)
	res.finish(traced)
	res.Attempted += len(base.ops)
	res.Failed += base.failed
	if res.FirstErr == "" && base.firstErr != nil {
		res.FirstErr = base.firstErr.Error()
	}
	if b, t := base.cycle.simDigest(), traced.cycle.simDigest(); b != t {
		return nil, fmt.Errorf("the traced stack is not inert: sim_digest %016x untraced, %016x traced", uint64(b), uint64(t))
	}

	var total int64
	for _, ns := range tr.self {
		total += ns
	}
	for l, name := range layerNames {
		res.set(name+".self_share", "ratio", ratio(float64(tr.self[l]), float64(total)))
	}

	c := &traced.cycle
	runs := float64(c.runs)
	st := &c.stats
	res.set("sim.msgs_per_run", "count", ratio(float64(c.sent), runs))
	res.set("sim.events_per_run", "count", ratio(float64(c.events), runs))
	res.set("sim.timers_per_run", "count", ratio(float64(c.counts.timers), runs))
	res.set("sim.links_live", "count", ratio(float64(c.counts.linksLive), runs))
	res.set("sim.self_ns_per_msg", "ns", ratio(float64(tr.self[layerSim]), float64(traced.sent)))
	res.set("sim.peak_rss_mb", "MiB", peakRSSMiB())
	res.set("core.handler_ns_per_call", "ns", ratio(float64(tr.self[layerCore]), float64(tr.calls[layerCore])))
	res.set("netadv.calls_per_run", "count", ratio(float64(c.counts.decided), runs))
	res.set("netadv.drop_ratio", "ratio", ratio(float64(c.counts.dropped), float64(c.counts.decided)))
	res.set("reliable.retransmits_per_run", "count", ratio(float64(c.counts.retransmits), runs))
	res.set("reliable.acked_dups_per_run", "count", ratio(float64(c.counts.ackedDups), runs))
	// Payloads the reliable layer released upward over frames put on the
	// wire (acks, retransmits and echoes included); 0 where the layer is off.
	in := &traced.cycleMsgsIn
	released := in[layerByz]
	if released == 0 {
		released = in[layerCore]
	}
	if in[layerReliable] == 0 {
		released = 0
	}
	res.set("reliable.goodput_ratio", "ratio", ratio(float64(released), float64(c.sent)))
	res.set("byz.echo_per_release", "count", ratio(float64(st.echoes), float64(in[layerCore])))
	res.set("byz.detected_per_run", "count", ratio(float64(c.counts.byzDetected), runs))
	res.set("byz.masked_per_run", "count", ratio(float64(c.counts.byzMasked), runs))
	res.set("fd.heartbeats_per_run", "count", ratio(float64(st.heartbeats), runs))
	res.set("fd.false_suspicions_per_run", "count", ratio(float64(st.falseSuspicions), runs))
	res.set("core.detect_ticks_p50", "ticks", tickPercentile(st.detect, 0.5))
	res.set("core.detect_ticks_p99", "ticks", tickPercentile(st.detect, 0.99))
	res.set("core.detect_all_ticks_p50", "ticks", tickPercentile(st.detectAll, 0.5))
	res.set("core.detect_all_ticks_p99", "ticks", tickPercentile(st.detectAll, 0.99))
	res.set("core.msgs_per_detection", "count", ratio(float64(c.sent), float64(st.failed)))
	res.set("core.undetected_share", "ratio", ratio(float64(st.undetected), float64(st.expected)))

	// The harness's own readings. runs_per_s_raw and op_ms_p99 are as
	// measured; the overhead ratio compares two readings at reference speed.
	raw := base.rawMs()
	res.set("harness.trace_overhead_ratio", "ratio", ratio(traced.opMsP50(), base.opMsP50()))
	var rawTotal float64
	for _, ms := range raw {
		rawTotal += ms
	}
	res.set("harness.runs_per_s_raw", "1/s", ratio(float64(base.runs)*1e3, rawTotal))
	res.set("harness.op_ms_p99", "ms", percentile(raw, 0.99))
	res.set("harness.op_samples", "count", float64(len(raw)))
	res.set("harness.host_speed", "ratio", median(host.speeds))
	res.set("harness.host_speed_spread", "ratio", ratio(slices.Max(host.speeds)-slices.Min(host.speeds), median(host.speeds)))
	return res, nil
}
