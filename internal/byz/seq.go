package byz

import "math/bits"

// seqWindow is how many sequence numbers past its watermark a seqSet holds
// inline.
const seqWindow = 128

// seqSet is the set of sequence numbers one sender's frames arrived under,
// kept the way an anti-replay window is: every number in 1..low has arrived,
// bit i of win stands for low+1+i, and a number beyond low+seqWindow goes
// into far, which is made on the first such number. A sender whose frames
// arrive in order, or reordered by less than the window, never makes far; a
// Byzantine sender's chosen numbers cost one map entry each, as a set of
// numbers must. A number that never arrives (a frame lost with no reliable
// layer to resend it) holds the watermark for good, and every number past
// the window after it goes into far. 0 is no sender's first number, so it
// has its own flag: a zero watermark means that nothing has arrived.
//
// When the watermark passes a number, that number slides out of the window;
// numbers that enter the window at its top leave far for their bit, so a
// number is in far only while it lies beyond the window.
type seqSet struct {
	low  uint64              // every number in 1..low has arrived
	win  [2]uint64           // bit i%64 of win[i/64]: low+1+i has arrived
	far  map[uint64]struct{} // arrived numbers beyond low+seqWindow
	zero bool                // 0 has arrived
}

// has reports whether seq has arrived. It only reads.
func (s *seqSet) has(seq uint64) bool {
	switch {
	case seq == 0:
		return s.zero
	case seq <= s.low:
		return true
	case seq-s.low <= seqWindow:
		return s.bit(seq - s.low - 1)
	}
	_, ok := s.far[seq]
	return ok
}

// add records seq's arrival and reports whether it is new.
func (s *seqSet) add(seq uint64) bool {
	if s.has(seq) {
		return false
	}
	switch {
	case seq == 0:
		s.zero = true
	case seq-s.low <= seqWindow:
		s.mark(seq - s.low - 1)
		s.slide()
	default:
		if s.far == nil {
			s.far = make(map[uint64]struct{})
		}
		s.far[seq] = struct{}{}
	}
	return true
}

func (s *seqSet) bit(i uint64) bool { return s.win[i/64]&(1<<(i%64)) != 0 }

func (s *seqSet) mark(i uint64) { s.win[i/64] |= 1 << (i % 64) }

// slide moves the watermark over the arrived numbers just above it, and
// takes the numbers that enter the window's top out of far. Each number
// enters the window once, so the lookups in far add up to at most one per
// number the watermark passes.
func (s *seqSet) slide() {
	for s.win[0]&1 != 0 {
		k := bits.TrailingZeros64(^s.win[0]) // 1..64 arrived in a row
		s.win[0] = s.win[0]>>k | s.win[1]<<(64-k)
		s.win[1] >>= k
		s.low += uint64(k)
		if len(s.far) == 0 {
			continue
		}
		for i := uint64(seqWindow - k); i < seqWindow; i++ {
			seq := s.low + 1 + i
			if _, ok := s.far[seq]; ok {
				delete(s.far, seq)
				s.mark(i)
			}
		}
	}
}
