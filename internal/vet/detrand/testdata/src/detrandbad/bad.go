// Package detrandbad holds detrand true positives: wall-clock reads,
// global math/rand draws, hand-built seeded sources, and
// order-dependent map iteration.
package detrandbad

import (
	"math/rand"
	"time"
)

func wallClock() time.Duration {
	start := time.Now() // want `time\.Now in determinism-contract package`
	_ = start
	return time.Since(start) // want `time\.Since in determinism-contract package`
}

func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `global math/rand\.Shuffle`
	return rand.Intn(10)               // want `global math/rand\.Intn`
}

func ownSource(seed int64) int {
	rng := rand.New(rand.NewSource(seed)) // want `rand\.NewSource in determinism-contract package`
	return rng.Intn(10)
}

func lastWriterWins(m map[string]int) string {
	var last string
	for k := range m {
		last = k // want `iteration-order-dependent write to last`
	}
	return last
}

func unsortedCollect(m map[string]int) []string {
	var keys []string
	for k := range m { // keys are never sorted: emission order is map order
		keys = append(keys, k) // want `append to keys \(keys not sorted after the loop\)`
	}
	return keys
}

func floatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `iteration-order-dependent write to sum`
	}
	return sum
}

func sendInOrder(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `iteration-order-dependent channel send`
	}
}
