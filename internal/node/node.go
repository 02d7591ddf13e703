// Package node defines the interfaces between a protocol/process
// implementation (a Handler) and its host (the deterministic simulator in
// internal/sim or the live goroutine runtime in internal/runtime).
//
// A Handler is a single process of the paper's system: it reacts to message
// deliveries and timer expirations, and acts on the world exclusively
// through its Context (sending messages, setting timers, executing
// failure-detection and crash events). Handlers own no goroutines and do no
// I/O; hosts guarantee that all callbacks of one process are serialized.
package node

import "failstop/internal/model"

// Payload is the content of a message. Tag identifies the protocol layer
// and message type (e.g. "SUSP", "HB", "APP"); Subject optionally names the
// process the message is about (the j of "j failed"); Data carries opaque
// application bytes.
type Payload struct {
	Tag     string
	Subject model.ProcID
	Data    []byte
}

// TagHeartbeat marks the failure detector's heartbeats (internal/fd sends
// them). Layer reads it, so that heartbeats bypass every interposer: a
// heartbeat is a periodic signal that the next one supersedes, not one of
// the protocol messages the model's channels promise to deliver.
const TagHeartbeat = "HB"

// TagSusp marks the §5 detector's "j failed" messages (internal/core sends
// them). The Byzantine layer holds frames under this tag for a witness
// quorum: a forged suspicion is what breaks fail-stop safety.
const TagSusp = "SUSP"

// Context is the capability a host hands to a Handler. All methods must be
// called only from within a Handler callback (hosts serialize callbacks per
// process). After CrashSelf returns, all further calls are no-ops.
//
// A Context is valid only for the callback (or injected action) that
// received it: a Handler must not keep one in a field and use it from a
// later callback. Hosts and interposers rely on this — a process of either
// host is its own context, which a simulator hands on to the next run once
// its own has returned, and an interposer's Layer hands its inner handler
// one wrapper that is rebound to the host's context at every callback
// entry.
type Context interface {
	// Self returns the process id of this handler.
	Self() model.ProcID
	// N returns the number of processes in the system.
	N() int
	// Now returns the current virtual (simulator) or wall-clock-derived
	// (runtime) time in ticks.
	Now() int64
	// Send appends a message to the FIFO channel from Self to to. Sending to
	// self is not supported: the paper's protocol counts the sender in its
	// own quorum directly, which hosts model without a loopback channel.
	Send(to model.ProcID, p Payload)
	// SetTimer schedules OnTimer(name) after delay ticks, replacing any
	// pending timer with the same name. A negative delay is a delay of 0: the
	// timer is due now, and fires after whatever else is already due. A delay
	// above 2⁴⁰ ticks (host.MaxDelay, the bound on a message delay) panics at
	// the call, as a send to self does.
	SetTimer(name string, delay int64)
	// CancelTimer cancels the pending timer with the given name, if any.
	CancelTimer(name string)
	// EmitFailed executes the event failed_Self(j).
	EmitFailed(j model.ProcID)
	// CrashSelf executes crash_Self. The process executes no further events;
	// pending deliveries and timers are discarded.
	CrashSelf()
	// EmitInternal records an internal event with the given tag and optional
	// subject process, for trace-level assertions by checkers.
	EmitInternal(tag string, subject model.ProcID)
}

// Handler is one process. Implementations must be deterministic functions
// of their inputs for simulator runs to be reproducible.
type Handler interface {
	// Init is called exactly once, before any delivery, at time 0.
	Init(ctx Context)
	// OnMessage delivers the message at the head of the channel from->self.
	// Deliveries from one sender arrive in FIFO order.
	OnMessage(ctx Context, from model.ProcID, p Payload)
	// OnTimer fires a timer previously set via Context.SetTimer.
	OnTimer(ctx Context, name string)
}

// Gate is optionally implemented by Handlers that must defer the receive
// event of certain messages (the paper's sFS2d: a message sent after a
// detection must not be *received* before the receiver also detects).
//
// When the message at the head of a channel is not accepted, the channel
// blocks — FIFO forbids skipping — and the host re-evaluates the gate after
// every subsequent event of the receiving process.
type Gate interface {
	// Accepts reports whether the process is willing to execute the receive
	// event for the message p at the head of channel from->self right now.
	Accepts(from model.ProcID, p Payload) bool
}

// CrashListener is optionally implemented by Handlers that need to observe
// their own crash (e.g. to flush state for recovery experiments that model
// stable storage, as in the §6 last-process-to-fail problem).
type CrashListener interface {
	// OnCrash is called once, after crash_Self has been recorded. The
	// context is already dead: all Context methods are no-ops.
	OnCrash(ctx Context)
}

// Restarter is optionally implemented by Handlers that participate in the
// crash-recovery subsystem (internal/recovery). When an environment fault
// plan crashes a process under durable recovery, the host calls Snapshot
// and persists the result; when the process restarts, the host calls
// OnRestart instead of Init — with the persisted snapshot under durable
// recovery, or with nil state under amnesia. Handlers that do not
// implement Restarter are restarted by calling Init again, which cannot
// clear any crashed-flag the handler keeps for itself.
type Restarter interface {
	// Snapshot serializes the state the handler wants to survive a crash.
	// It must not mutate the handler: hosts call it at crash time, before
	// OnCrash.
	Snapshot() []byte
	// OnRestart re-initializes the handler after a restart. state is the
	// bytes a prior Snapshot returned, or nil when nothing was persisted
	// (amnesia, or a first crash that predates any snapshot). The handler
	// must leave itself runnable: clear any internal crashed-flag, rebuild
	// its state from the snapshot, and re-arm its timers.
	OnRestart(ctx Context, state []byte)
}
