// Package xrand provides the small set of random primitives the
// gossip protocols need — Bernoulli trials, uniform sampling without
// replacement, shuffles — on top of a seedable *rand.Rand so that every
// simulation run is reproducible from its seed.
//
// All functions take an explicit *rand.Rand; nothing in this package
// touches the global math/rand source (avoid mutable globals).
package xrand

import (
	"math"
	"math/rand"
	"slices"

	"damulticast/internal/ids"
)

// SeedFor derives a child seed from a base seed and a label by hashing
// both through FNV-1a with a splitmix64-style finalizer. Distinct
// labels yield statistically independent streams, so a simulation can
// hand every node its own *rand.Rand — the foundation of the parallel
// kernel's determinism contract: per-node streams never interleave, so
// results do not depend on execution order across worker goroutines.
func SeedFor(base int64, label string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(base) >> (8 * i) & 0xff
		h *= 1099511628211
	}
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h & 0x7fffffffffffffff)
}

// New returns a deterministic random stream that yields exactly what
// rand.New(rand.NewSource(seed)) yields, through every method, but
// whose source does no seeding work until it is drawn from (see
// lazySource). It is the one constructor for seeded streams: the
// determinism-contract packages may not call rand.NewSource.
func New(seed int64) *rand.Rand {
	return rand.New(newSource(seed))
}

// NewStream returns a fresh deterministic random stream for the given
// base seed and label (see SeedFor).
func NewStream(base int64, label string) *rand.Rand {
	return New(SeedFor(base, label))
}

// HashCoin is a pure Bernoulli trial: it returns true with probability
// p, decided solely by (seed, label) — no stream state. Repeated calls
// with the same arguments always agree, and calls are safe from any
// number of goroutines, which makes it the right coin for per-pair
// failure appearances and partition cell assignment in the parallel
// simulation kernel.
func HashCoin(seed int64, label string, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return HashUniform(seed, label) < p
}

// HashUniform maps (seed, label) to a uniform float64 in [0, 1),
// deterministically and statelessly.
func HashUniform(seed int64, label string) float64 {
	return float64(uint64(SeedFor(seed, label))>>10) / float64(1<<53)
}

// Bernoulli returns true with probability p. p <= 0 always returns
// false; p >= 1 always returns true.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// SampleIDs returns min(k, len(pool)) distinct elements drawn uniformly
// without replacement from pool. The pool itself is never mutated; the
// result is a fresh slice. Order of the sample is random.
func SampleIDs(r *rand.Rand, pool []ids.ProcessID, k int) []ids.ProcessID {
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	if k*8 < len(pool) {
		return sampleSparse(r, pool, k)
	}
	return SampleInPlace(r, slices.Clone(pool), k)
}

// SampleInPlace draws min(k, len(s)) distinct elements of s exactly as
// SampleIDs(r, s, k) would, but by permuting s itself: the sample is
// returned as a prefix of s, so a caller that appended the pool to its
// own buffer samples without allocating. k <= 0 draws nothing.
func SampleInPlace(r *rand.Rand, s []ids.ProcessID, k int) []ids.ProcessID {
	if k <= 0 || len(s) == 0 {
		return s[:0]
	}
	if k >= len(s) {
		Shuffle(r, s)
		return s
	}
	// Partial Fisher-Yates: O(k) draws.
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(s)-i)
		s[i], s[j] = s[j], s[i]
	}
	return s[:k]
}

// smallSample bounds the samples whose sparse bookkeeping lives in
// fixed arrays scanned linearly (O(k²) compares, no allocation);
// larger samples keep it in a map.
const smallSample = 64

// sampleSparse is SampleIDs for k much smaller than the pool: the same
// partial Fisher-Yates, with the same draws and the same sample, run
// virtually — only the displaced slots are recorded, O(k) time and
// space instead of an O(len(pool)) copy. Building tables for
// simulations with tens of thousands of processes calls this once per
// process; a copy per call would make setup quadratic in the
// population.
func sampleSparse(r *rand.Rand, pool []ids.ProcessID, k int) []ids.ProcessID {
	var d displaced
	if k > smallSample {
		d.big = make(map[int]int, k)
	}
	out := make([]ids.ProcessID, 0, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(pool)-i)
		vj, vi := d.get(j), d.get(i)
		d.set(j, vi)
		out = append(out, pool[vj])
	}
	return out
}

// displaced records the slots a virtual Fisher-Yates has overwritten:
// slot → pool index, where an unrecorded slot holds its own index.
// Each draw records at most one slot, so a sample of up to smallSample
// fits the arrays; a larger one uses big.
type displaced struct {
	n           int
	slots, idxs [smallSample]int
	big         map[int]int
}

func (d *displaced) get(slot int) int {
	if d.big != nil {
		if idx, ok := d.big[slot]; ok {
			return idx
		}
	} else if i := slices.Index(d.slots[:d.n], slot); i >= 0 {
		return d.idxs[i]
	}
	return slot
}

func (d *displaced) set(slot, idx int) {
	if d.big != nil {
		d.big[slot] = idx
		return
	}
	i := slices.Index(d.slots[:d.n], slot)
	if i < 0 {
		i = d.n
		d.n++
		d.slots[i] = slot
	}
	d.idxs[i] = idx
}

// SampleExcluding samples k distinct ids from pool, never returning
// any of the (distinct) ids in exclude. Matches the paper's Fig. 7
// loop that selects targets from Table \ Ω.
func SampleExcluding(r *rand.Rand, pool []ids.ProcessID, k int, exclude ...ids.ProcessID) []ids.ProcessID {
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	if len(exclude) == 0 {
		return SampleIDs(r, pool, k)
	}
	if (k+len(exclude))*8 < len(pool) {
		// Sparse: rejection-sample distinct indices, skipping excluded
		// ids — O(k + |exclude|) expected draws, no O(len(pool)) copy.
		// The attempt bound guards pools dominated by duplicates of
		// excluded ids; on exhaustion we fall through to the exact
		// filtered path. The drawn indices are a stack list for small
		// samples (see smallSample), a map for large ones.
		var arr [smallSample]int
		chosen := arr[:0]
		var big map[int]struct{}
		if k+len(exclude) > smallSample {
			big = make(map[int]struct{}, k)
		}
		out := make([]ids.ProcessID, 0, k)
		maxAttempts := 8*(k+len(exclude)) + 32
		for attempts := 0; len(out) < k && attempts < maxAttempts; attempts++ {
			j := r.Intn(len(pool))
			if big != nil {
				if _, dup := big[j]; dup {
					continue
				}
				big[j] = struct{}{}
			} else {
				if slices.Contains(chosen, j) {
					continue
				}
				chosen = append(chosen, j)
			}
			if slices.Contains(exclude, pool[j]) {
				continue
			}
			out = append(out, pool[j])
		}
		if len(out) == k {
			return out
		}
	}
	filtered := make([]ids.ProcessID, 0, len(pool))
	for _, p := range pool {
		if !slices.Contains(exclude, p) {
			filtered = append(filtered, p)
		}
	}
	if len(filtered) == 0 {
		return nil
	}
	// filtered is ours: sample it in place (the same draws and sample
	// as SampleIDs, without its copy).
	return SampleInPlace(r, filtered, k)
}

// Shuffle permutes s in place.
func Shuffle(r *rand.Rand, s []ids.ProcessID) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// Pick returns one uniformly random element of pool and true, or the
// zero ProcessID and false if pool is empty.
func Pick(r *rand.Rand, pool []ids.ProcessID) (ids.ProcessID, bool) {
	if len(pool) == 0 {
		return "", false
	}
	return pool[r.Intn(len(pool))], true
}

// Fanout computes the paper's intra-group dissemination fanout
// ln(S) + c for a group of size s, rounded up, never negative, and at
// least 1 for any non-empty group (a process must be able to forward
// even in tiny groups).
func Fanout(s int, c float64) int {
	if s <= 0 {
		return 0
	}
	f := int(math.Ceil(math.Log(float64(s)) + c))
	if f < 1 {
		f = 1
	}
	return f
}

// ViewSize computes the membership-table size (b+1)·ln(S) of the
// underlying flat membership algorithm (Kermarrec-Massoulié-Ganesh,
// paper ref [10]), rounded up, with a floor of 1 for non-empty groups.
func ViewSize(s int, b float64) int {
	if s <= 0 {
		return 0
	}
	v := int(math.Ceil((b + 1) * math.Log(float64(s))))
	if v < 1 {
		v = 1
	}
	return v
}

// PSel computes the self-election probability g/S (clamped to [0,1])
// with which a process decides to forward an event to its supertopic
// table (paper §V-B).
func PSel(g float64, s int) float64 {
	if s <= 0 {
		return 0
	}
	p := g / float64(s)
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}

// PA computes the per-superprocess send probability a/z (clamped).
func PA(a float64, z int) float64 {
	if z <= 0 {
		return 0
	}
	p := a / float64(z)
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}
