package node

// Arena chunk sizes: the first chunk is small enough that a link which
// carries three frames reserves a few hundred bytes, not a page, and chunks
// stop doubling at a page so a busy link wastes at most one page's tail.
const (
	arenaFirstChunk = 256
	arenaMaxChunk   = 4096
)

// Arena carves the byte slices an interposer puts on the wire (frame header
// plus payload) out of shared chunks instead of one allocation per frame.
// It only ever bumps forward: bytes handed out are never reused, because a
// host may keep a sent Payload for as long as it likes (in-flight queues,
// replay memory), so a chunk is garbage exactly when every frame carved
// from it is. One long-lived frame therefore pins its whole chunk: give
// frames with unrelated lifetimes — different destinations, one of which may
// be dead and never acknowledge — arenas of their own. The zero value is
// ready to use. Not safe for concurrent use — an endpoint owns its arenas
// and touches them only inside its serialized callbacks.
type Arena struct {
	free []byte // unused tail of the current chunk
	next int    // size of the next chunk
}

// Alloc returns a zeroed n-byte slice with no spare capacity, so appending
// to it cannot run into a neighbouring frame.
func (a *Arena) Alloc(n int) []byte {
	if n > len(a.free) {
		if a.next == 0 {
			a.next = arenaFirstChunk
		}
		if n > a.next {
			// An oversized frame is its own allocation; the current chunk
			// keeps serving the small ones.
			return make([]byte, n)
		}
		a.free = make([]byte, a.next)
		if a.next < arenaMaxChunk {
			a.next *= 2
		}
	}
	b := a.free[:n:n]
	a.free = a.free[n:]
	return b
}
