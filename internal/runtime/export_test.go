package runtime

import "failstop/internal/model"

// WorkerDone returns a channel closed once p's worker goroutine has
// returned.
func (n *Net) WorkerDone(p model.ProcID) <-chan struct{} { return n.procs[p].done }

// Queued returns how many message copies sit in the queues into p.
func (n *Net) Queued(p model.ProcID) int {
	pr := n.procs[p]
	pr.mu.Lock()
	defer pr.mu.Unlock()
	total := 0
	for _, q := range pr.queues {
		total += len(q)
	}
	return total
}

// LifetimeDeadlines returns how many crash windows and restarts p's deadline
// queue holds. The queue is its worker's: call it once Stop has returned.
func (n *Net) LifetimeDeadlines(p model.ProcID) int {
	held := 0
	for _, d := range n.procs[p].due {
		if d.kind != timerDeadline {
			held++
		}
	}
	return held
}

// PresetSent numbers sent sends that never happened, so that the next send
// takes id sent+1.
func (n *Net) PresetSent(sent model.MsgID) { n.core.LastID = sent }
