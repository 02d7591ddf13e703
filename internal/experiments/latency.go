package experiments

import (
	"failstop/internal/core"
	"failstop/internal/model"
)

// detectionLatencies reads the §5 detection latency off a recorded history:
// for every failed_i(j), in history order, the ticks since the first
// suspicion of j anywhere in the run. A detection of a process nobody
// suspected has no latency and is left out.
func detectionLatencies(h model.History) []float64 {
	suspectedAt := map[model.ProcID]int64{}
	var out []float64
	for _, e := range h {
		switch {
		case e.Kind == model.KindInternal && e.Tag == model.TagSuspect:
			if _, ok := suspectedAt[e.Target]; !ok {
				suspectedAt[e.Target] = e.Time
			}
		case e.Kind == model.KindFailed:
			if at, ok := suspectedAt[e.Target]; ok {
				out = append(out, float64(e.Time-at))
			}
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
