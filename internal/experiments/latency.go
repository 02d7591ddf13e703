package experiments

import (
	"failstop/internal/core"
	"failstop/internal/model"
)

// firstSuspicionLatencies is the §5 detection latency of a recorded run, as
// model.Latencies measures it from the first suspicion of j anywhere in the
// run: one sample per failed_i(j), in history order, leaving out a detection
// of a process nobody had suspected.
func firstSuspicionLatencies(h model.History) []float64 {
	var out []float64
	for _, l := range model.Latencies(h, core.TagSusp) {
		if l.FirstSuspicion >= 0 {
			out = append(out, float64(l.FirstSuspicion))
		}
	}
	return out
}

// appLatencies reads application-message latency off a recorded history:
// for every receive of a core.TagApp message, in history order, the ticks
// since its send.
func appLatencies(h model.History) []float64 {
	sentAt := map[model.MsgID]int64{}
	var out []float64
	for _, e := range h {
		switch {
		case e.Kind == model.KindSend && e.Tag == core.TagApp:
			sentAt[e.Msg] = e.Time
		case e.Kind == model.KindRecv && e.Tag == core.TagApp:
			if at, ok := sentAt[e.Msg]; ok {
				out = append(out, float64(e.Time-at))
			}
		}
	}
	return out
}
