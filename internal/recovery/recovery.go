// Package recovery implements the crash-recovery subsystem: environment-
// scheduled process lifetimes (crash/restart windows, including periodic
// restart storms), the recovery mode selecting what a restarted process
// remembers, and the durable-state stores that do the remembering.
//
// The paper's model is fail-stop: crash_p is final, and every Figure 1
// property is stated against that finality. Crash-recovery is the
// realistic deviation — a process can return, either with amnesia (zero
// state) or with state mediated by a persistence layer, the construction
// "You Only Live Multiple Times" (Kozhaya–Marić–Pignolet) uses to reuse
// crash-stop protocols under crash-recovery. The hosts (internal/sim and
// internal/runtime) execute Lifetimes identically: at a crash the process
// goes silent exactly like a protocol-level crash (and, under Durable, its
// handler's Snapshot is saved to the Store); at a restart the handler is
// re-initialized through node.Restarter.OnRestart with the saved snapshot
// (Durable), with nil state (Amnesia), or not at all (Off ignores
// restarts: the fail-stop world the paper assumes).
package recovery

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"failstop/internal/model"
)

// Mode selects what a restarted process remembers. The zero value is Off.
type Mode int

// Recovery modes.
const (
	// Off ignores restart schedules entirely: an environment crash is
	// terminal, exactly like the paper's fail-stop crashes.
	Off Mode = iota
	// Amnesia restarts a crashed process with zero state: the handler is
	// re-initialized from scratch (OnRestart with nil state).
	Amnesia
	// Durable saves the handler's Snapshot at crash time and hands it back
	// at restart: the persistence-mediated restart of the YOLMT
	// construction.
	Durable
)

// modeNames is the one mode↔name table, as the CLIs and sweep cells spell
// the modes: String, ParseMode and MarshalText all read it.
var modeNames = [...]string{Off: "off", Amnesia: "amnesia", Durable: "durable"}

// Modes returns every mode, in the order of modeNames.
func Modes() []Mode {
	ms := make([]Mode, len(modeNames))
	for i := range ms {
		ms[i] = Mode(i)
	}
	return ms
}

// known reports whether m has a row of modeNames.
func (m Mode) known() bool { return m >= 0 && int(m) < len(modeNames) }

// String names the mode, or renders "mode(n)" for a value that names none.
func (m Mode) String() string {
	if !m.known() {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode parses a mode name ("off", "amnesia", "durable"); the empty
// string parses as Off.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return Off, nil
	}
	if i := slices.Index(modeNames[:], s); i >= 0 {
		return Mode(i), nil
	}
	return Off, fmt.Errorf("recovery: unknown mode %q (want off, amnesia, or durable)", s)
}

// MarshalText implements encoding.TextMarshaler: modes travel as their
// names in wire formats (sweep cells, trace headers).
func (m Mode) MarshalText() ([]byte, error) {
	if !m.known() {
		return nil, fmt.Errorf("recovery: cannot marshal unknown mode %d", int(m))
	}
	return []byte(modeNames[m]), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *Mode) UnmarshalText(b []byte) error {
	parsed, err := ParseMode(string(b))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// Lifetime is one process's environment-scheduled crash/restart window, in
// host ticks — the normalized form of a netadv process-fault rule, shared
// by both hosts so neither depends on the plan format.
//
// One-shot (Period == 0): the process crashes at Crash and, if Restart is
// nonzero, restarts at Restart. Restart == 0 is a terminal crash.
//
// Periodic (Period > 0): a restart storm. The process crashes at
// Crash + k·Period for k = 0, 1, ... and restarts (Restart - Crash) ticks
// after each crash; Until, when nonzero, bounds the crash times. An
// unbounded storm never lets a run quiesce, so hosts require a horizon
// (sim MaxTime/MaxEvents) to execute one.
type Lifetime struct {
	// Proc is the process the window applies to.
	Proc model.ProcID
	// Crash is the (first) crash time.
	Crash int64
	// Restart is the (first) restart time; 0 means the crash is terminal.
	Restart int64
	// Period, when nonzero, repeats the window every Period ticks.
	Period int64
	// Until, when nonzero, is the last tick at which a periodic crash may
	// fire. Ignored for one-shot windows.
	Until int64
}

// Unbounded reports whether the lifetime generates crashes forever: a
// periodic window with no Until bound.
func (l Lifetime) Unbounded() bool { return l.Period > 0 && l.Until == 0 }

// Store persists per-process snapshots across restarts. Save replaces any
// prior snapshot for the process; Load returns the most recent one.
// Implementations must be safe for concurrent use: the live runtime saves
// and loads from per-process goroutines.
type Store interface {
	Save(p model.ProcID, state []byte)
	Load(p model.ProcID) ([]byte, bool)
}

// MemStore is the deterministic in-memory Store the simulator uses (and
// the default for the live runtime when no directory is configured).
type MemStore struct {
	mu    sync.Mutex
	state map[model.ProcID][]byte
}

// NewMemStore builds an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{state: make(map[model.ProcID][]byte)}
}

// Save implements Store. The snapshot is copied: callers may reuse the
// buffer.
func (s *MemStore) Save(p model.ProcID, state []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := make([]byte, len(state))
	copy(buf, state)
	s.state[p] = buf
}

// Load implements Store.
func (s *MemStore) Load(p model.ProcID) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.state[p]
	if !ok {
		return nil, false
	}
	buf := make([]byte, len(st))
	copy(buf, st)
	return buf, true
}

// FileStore is a file-backed Store for the live runtime: one
// "proc-<id>.state" file per process under Dir. I/O errors are sticky and
// reported by Err — the host's restart path treats an unreadable snapshot
// as absent rather than failing the run.
type FileStore struct {
	dir string

	mu  sync.Mutex
	err error
}

// NewFileStore builds a store rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

func (s *FileStore) path(p model.ProcID) string {
	return filepath.Join(s.dir, fmt.Sprintf("proc-%d.state", int(p)))
}

// Save implements Store.
func (s *FileStore) Save(p model.ProcID, state []byte) {
	if err := os.WriteFile(s.path(p), state, 0o644); err != nil {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.mu.Unlock()
	}
}

// Load implements Store.
func (s *FileStore) Load(p model.ProcID) ([]byte, bool) {
	state, err := os.ReadFile(s.path(p))
	if err != nil {
		return nil, false
	}
	return state, true
}

// Err returns the first write error the store swallowed, if any.
func (s *FileStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
