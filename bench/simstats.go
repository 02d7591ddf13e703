package main

import (
	"failstop/internal/byz"
	"failstop/internal/fd"
	"failstop/internal/model"
)

// simStats pools the simulated statistics of a set of runs: everything in
// it is a function of the recorded histories alone, so it repeats exactly
// for a fixed seed and is what sim_digest hashes. All times are simulated
// ticks, never host time.
type simStats struct {
	// detect holds one sample per (i, j) pair that executed both: ticks
	// from internal suspect(i, j) to failed_i(j).
	detect []int64
	// detectAll holds one sample per genuinely crashed j that every live
	// process detected: ticks from crash_j to the last failed(j).
	detectAll []int64
	// failed counts failed events; expected counts (live process, down
	// victim) pairs at the end of each run, undetected those among them
	// with no failed event.
	failed, expected, undetected int
	// heartbeats and echoes count send events tagged by the fd layer and
	// the byz witness echo; falseSuspicions counts internal suspect events
	// whose target had not crashed when they were raised.
	heartbeats, echoes, falseSuspicions int

	// Scratch, reused across histories so extraction allocates nothing
	// once the sample slices have grown.
	suspectAt, failedAt []int64 // (n+1)×(n+1), -1 = not seen
	crashAt             []int64 // n+1, -1 = up
}

// add folds one history of an n-process run into the pool.
func (s *simStats) add(h model.History, n int) {
	w := n + 1
	if len(s.crashAt) != w {
		s.suspectAt = make([]int64, w*w)
		s.failedAt = make([]int64, w*w)
		s.crashAt = make([]int64, w)
	}
	for i := range s.suspectAt {
		s.suspectAt[i], s.failedAt[i] = -1, -1
	}
	for i := range s.crashAt {
		s.crashAt[i] = -1
	}
	for _, e := range h {
		switch e.Kind {
		case model.KindSend:
			switch e.Tag {
			case fd.TagHeartbeat:
				s.heartbeats++
			case byz.TagEcho:
				s.echoes++
			}
		case model.KindRecv:
		case model.KindCrash:
			s.crashAt[e.Proc] = e.Time
		case model.KindInternal:
			switch e.Tag {
			case "suspect":
				if k := int(e.Proc)*w + int(e.Target); s.suspectAt[k] < 0 {
					s.suspectAt[k] = e.Time
				}
				if s.crashAt[e.Target] < 0 {
					s.falseSuspicions++
				}
			case model.TagRestart:
				s.crashAt[e.Proc] = -1
			}
		case model.KindFailed:
			s.failed++
			k := int(e.Proc)*w + int(e.Target)
			s.failedAt[k] = e.Time
			if s.suspectAt[k] >= 0 {
				s.detect = append(s.detect, e.Time-s.suspectAt[k])
			}
		}
	}
	for j := 1; j <= n; j++ {
		if s.crashAt[j] < 0 {
			continue
		}
		last, all := int64(-1), true
		for i := 1; i <= n; i++ {
			if s.crashAt[i] >= 0 {
				continue
			}
			s.expected++
			at := s.failedAt[i*w+j]
			if at < 0 {
				s.undetected++
				all = false
			} else if at > last {
				last = at
			}
		}
		// A detection that completed before its target crashed is an
		// erroneous suspicion (the victim dies later, on its own SUSP):
		// it has no crash-to-detection latency.
		if all && last >= s.crashAt[j] {
			s.detectAll = append(s.detectAll, last-s.crashAt[j])
		}
	}
}

// fold feeds the pooled statistics into d.
func (s *simStats) fold(d *digest) {
	d.add(int64(s.failed))
	d.add(int64(s.expected))
	d.add(int64(s.undetected))
	for _, v := range s.detect {
		d.add(v)
	}
	for _, v := range s.detectAll {
		d.add(v)
	}
}
