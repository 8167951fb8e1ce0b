// Package detrandclean holds code detrand must accept: rand streams
// over a supplied source, order-independent map iteration, the
// sorted-keys idiom, and the //damcvet:allow escape hatch.
package detrandclean

import (
	"math/rand"
	"sort"
	"time"
)

// seededStream draws from an explicit generator over a source it is
// handed (in the contract packages, xrand builds sources) — the
// supported idiom, never flagged.
func seededStream(src rand.Source) int {
	rng := rand.New(src)
	return rng.Intn(10)
}

// sortedKeys is the canonical deterministic map walk.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// orderIndependent writes commute: integer accumulation, counters, and
// writes keyed by the loop variable each own their slot.
func orderIndependent(m map[string]int) (int, int, map[string]int) {
	var sum, n int
	out := make(map[string]int, len(m))
	for k, v := range m {
		sum += v
		n++
		out[k] = v * 2
	}
	return sum, n, out
}

// sampledClock shows the escape hatch: experiment wall-time sampling
// is legitimately wall-clock and documents itself.
func sampledClock() time.Duration {
	start := time.Now()                              //damcvet:allow detrand(wall-time sampling for run reports, not a protocol result)
	return time.Since(start).Round(time.Millisecond) //damcvet:allow detrand(wall-time sampling for run reports, not a protocol result)
}
