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

// FaultTimers returns how many lifetime crash/restart timers the net holds.
func (n *Net) FaultTimers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.faultTimers)
}
