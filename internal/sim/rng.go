package sim

import "math/rand"

// The default delay distribution draws from the stream that
// rand.New(rand.NewSource(seed)) produces — math/rand's additive
// lagged-Fibonacci generator (607 words, tap 273) — reproduced here draw for
// draw, because every pinned history, report and experiment table was recorded
// from it. It is reproduced rather than used for what seeding it costs a short
// run: the stdlib fills its 607 words from one chain of 1,841 dependent steps
// of x → 48271·x mod 2³¹−1, at New, drawn from or not. Here New only notes the
// seed; the words are filled at the first draw, and each from its own point of
// the chain — word i starts at x₀·48271^(21+3i) — so the CPU overlaps 607
// chains of three steps.
const (
	rngLen  = 607
	rngTap  = 273
	seedMod = 1<<31 - 1 // a Mersenne prime: reducing by it is two shifts and adds
	seedMul = 48271
)

var (
	seedJump  [rngLen]uint64 // seedMul^(21+3i) mod seedMod
	rngCooked [rngLen]int64  // the stdlib's additive constants, word by word
)

// mulmod returns a·b mod seedMod for a and b in [1, seedMod): the product is
// below 2⁶², one fold leaves at most 2·seedMod, the second at most seedMod, and
// seedMod itself would mean a zero residue, which a prime modulus rules out.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&seedMod + p>>31
	return p&seedMod + p>>31
}

// init computes the jump multipliers and recovers rngCooked, which math/rand
// does not export: a stdlib source is run through one lap of its register, the
// recurrence run backward from the 607 outputs to the words its seeding left,
// and this package's own seeding of the same seed taken out of them.
func init() {
	j := uint64(1)
	for range 21 {
		j = mulmod(j, seedMul)
	}
	for i := range seedJump {
		seedJump[i] = j
		j = mulmod(mulmod(mulmod(j, seedMul), seedMul), seedMul)
	}
	//sfs:allow detrand not a delay source: the stream of one fixed seed is read once, at init, for the constants under every seed
	std := rand.New(rand.NewSource(1))
	g := delayRand{seed: 1}
	g.fill() // over a zero rngCooked: the seed's part of each word alone
	var vec [rngLen]int64
	tap, feed := 0, rngLen-rngTap
	for range rngLen {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		vec[feed] = int64(std.Uint64())
	}
	for range rngLen {
		vec[feed] -= vec[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ g.vec[i]
	}
}

// delayRand is one run's delay stream. It lives in the bulk: reseed makes it
// the next run's without touching the register.
type delayRand struct {
	seed      int64
	filled    bool // vec, tap and feed are seed's stream, at the position drawn to
	tap, feed int
	vec       [rngLen]int64
}

// reseed restarts the stream at seed's first draw.
func (r *delayRand) reseed(seed int64) { r.seed, r.filled = seed, false }

func (r *delayRand) fill() {
	x := r.seed % seedMod
	if x < 0 {
		x += seedMod
	}
	if x == 0 {
		x = 89482311
	}
	for i := range r.vec {
		a := mulmod(uint64(x), seedJump[i])
		b := mulmod(a, seedMul)
		c := mulmod(b, seedMul)
		r.vec[i] = int64(a<<40^b<<20^c) ^ rngCooked[i]
	}
	r.tap, r.feed, r.filled = 0, rngLen-rngTap, true
}

func (r *delayRand) uint64() uint64 {
	if !r.filled {
		r.fill()
	}
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *delayRand) int63() int64 { return int64(r.uint64() &^ (1 << 63)) }

// int63n returns a uniform draw from [0, n), as (*rand.Rand).Int63n does: a
// mask for a power of two, else the first draw below the largest multiple of n.
// n is positive: CheckDelayBounds keeps the delay width in [1, 2⁴⁰+1].
func (r *delayRand) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.int63() & (n - 1)
	}
	max := int64(1<<63 - 1 - (1<<63)%uint64(n))
	v := r.int63()
	for v > max {
		v = r.int63()
	}
	return v % n
}
