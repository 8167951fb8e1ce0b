package xrand

import "math/rand"

// math/rand's generator is an additive lagged-Fibonacci register of
// rngLen words with tap distance rngTap. Seeding fills the register
// from a Lehmer sequence x[k+1] = 48271·x[k] mod (2³¹−1): 20 warm-up
// steps, then three steps per word, 1,841 dependent multiplies in all.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lehmerSteps is the number of Lehmer steps rngSource.Seed takes.
	lehmerSteps = 20 + 3*rngLen
)

// lehmerPow[k] is 48271^k mod (2³¹−1), so the k-th Lehmer step from a
// seed s is s·lehmerPow[k] mod (2³¹−1): any seed word can be computed
// on its own instead of after every word before it.
var lehmerPow = func() (t [lehmerSteps + 1]uint64) {
	t[0] = 1
	for k := 1; k <= lehmerSteps; k++ {
		t[k] = t[k-1] * 48271 % int32max
	}
	return t
}()

// lazySource is a rand.Source64 whose output is bit-identical to
// math/rand's rand.NewSource for the same seed, but which does no work
// until it is drawn from.
//
// Until the feed index wraps onto words the generator itself wrote,
// draw n (1-based, n ≤ rngTap) is vec₀[rngLen−rngTap−n] + vec₀[rngLen−n],
// the sum of two seed words, each three table multiplies away. A
// stream that stays below that boundary — almost every per-process
// stream in a simulation — never builds the 607-word register; one
// that crosses it builds the register once, replays the draws it has
// served, and continues exactly as rngSource does.
type lazySource struct {
	seed uint64 // normalized as rngSource.Seed does: 1 ≤ seed < 2³¹−1
	n    int    // draws served from the seed words (≤ rngTap)

	vec       *[rngLen]int64 // the register; nil until first needed
	built     bool           // vec holds the live register for seed
	tap, feed int
}

var _ rand.Source64 = (*lazySource)(nil)

// newSource returns a lazy source seeded with seed.
func newSource(seed int64) *lazySource {
	s := &lazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream rand.NewSource(seed) yields.
// A register already allocated is kept for reuse.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.n = 0
	s.built = false
}

// word returns the register's i-th seed word, vec₀[i].
func (s *lazySource) word(i int) int64 {
	k := 21 + 3*i
	x1 := s.seed * lehmerPow[k] % int32max
	x2 := s.seed * lehmerPow[k+1] % int32max
	x3 := s.seed * lehmerPow[k+2] % int32max
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ rngCooked[i]
}

// build materializes the register in the state rngSource would hold
// after the s.n draws already served.
func (s *lazySource) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	v := s.vec
	for i := range v {
		v[i] = s.word(i)
	}
	for d := 1; d <= s.n; d++ {
		v[rngLen-rngTap-d] += v[rngLen-d]
	}
	s.tap = (rngLen - s.n) % rngLen
	s.feed = rngLen - rngTap - s.n
	s.built = true
}

// Uint64 returns the next 64-bit value of the stream.
func (s *lazySource) Uint64() uint64 {
	if !s.built {
		if s.n < rngTap {
			s.n++
			return uint64(s.word(rngLen-rngTap-s.n) + s.word(rngLen-s.n))
		}
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit value, as rngSource does.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
