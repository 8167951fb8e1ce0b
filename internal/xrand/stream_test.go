package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"damulticast/internal/ids"
)

func TestSeedForStableAndDistinct(t *testing.T) {
	if SeedFor(1, "a") != SeedFor(1, "a") {
		t.Error("SeedFor not stable")
	}
	seen := map[int64]string{}
	for base := int64(0); base < 10; base++ {
		for i := 0; i < 100; i++ {
			label := fmt.Sprintf("node:%d", i)
			s := SeedFor(base, label)
			if s < 0 {
				t.Fatalf("negative seed %d", s)
			}
			key := fmt.Sprintf("%d/%s", base, label)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s -> %d", prev, key, s)
			}
			seen[s] = key
		}
	}
}

func TestNewStreamIndependence(t *testing.T) {
	a := NewStream(7, "a")
	b := NewStream(7, "b")
	a2 := NewStream(7, "a")
	same, diff := 0, 0
	for i := 0; i < 100; i++ {
		va, vb, va2 := a.Int63(), b.Int63(), a2.Int63()
		if va == va2 {
			same++
		}
		if va != vb {
			diff++
		}
	}
	if same != 100 {
		t.Error("same label does not reproduce the stream")
	}
	if diff < 99 {
		t.Error("distinct labels share a stream")
	}
}

func TestHashCoinDeterministicAndCalibrated(t *testing.T) {
	if HashCoin(1, "x", 0) {
		t.Error("p=0 returned true")
	}
	if !HashCoin(1, "x", 1) {
		t.Error("p=1 returned false")
	}
	for i := 0; i < 10; i++ {
		if HashCoin(3, "pair", 0.5) != HashCoin(3, "pair", 0.5) {
			t.Fatal("coin not stable")
		}
	}
	const total = 20000
	for _, p := range []float64{0.15, 0.5, 0.85} {
		hits := 0
		for i := 0; i < total; i++ {
			if HashCoin(9, fmt.Sprintf("k%d", i), p) {
				hits++
			}
		}
		if got := float64(hits) / total; math.Abs(got-p) > 0.02 {
			t.Errorf("p=%g: observed %g", p, got)
		}
	}
}

func TestHashUniformRange(t *testing.T) {
	var sum float64
	const total = 20000
	for i := 0; i < total; i++ {
		u := HashUniform(5, fmt.Sprintf("u%d", i))
		if u < 0 || u >= 1 {
			t.Fatalf("uniform out of range: %g", u)
		}
		sum += u
	}
	if mean := sum / total; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %g", mean)
	}
}

// bigPool triggers the sparse sampling fast paths (k*8 < len(pool)).
func bigPool(n int) []ids.ProcessID {
	pool := make([]ids.ProcessID, n)
	for i := range pool {
		pool[i] = ids.ProcessID(fmt.Sprintf("p%05d", i))
	}
	return pool
}

func TestSampleIDsSparsePath(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pool := bigPool(10000)
	const k = 40
	counts := map[ids.ProcessID]int{}
	for trial := 0; trial < 200; trial++ {
		got := SampleIDs(r, pool, k)
		if len(got) != k {
			t.Fatalf("len = %d", len(got))
		}
		seen := map[ids.ProcessID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate %s in sample", id)
			}
			seen[id] = true
			counts[id]++
		}
	}
	// Uniformity smoke: no element should dominate; with 200·40 draws
	// over 10000 elements the expected count is 0.8.
	for id, c := range counts {
		if c > 10 {
			t.Errorf("%s sampled %d times", id, c)
		}
	}
}

func TestSampleExcludingSparsePath(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pool := bigPool(10000)
	exclude := pool[:50]
	for trial := 0; trial < 100; trial++ {
		got := SampleExcluding(r, pool, 30, exclude...)
		if len(got) != 30 {
			t.Fatalf("len = %d", len(got))
		}
		seen := map[ids.ProcessID]bool{}
		for _, id := range got {
			if slices.Contains(exclude, id) {
				t.Fatalf("excluded id %s sampled", id)
			}
			if seen[id] {
				t.Fatalf("duplicate %s", id)
			}
			seen[id] = true
		}
	}
}

func TestSampleExcludingSparseFallback(t *testing.T) {
	// A pool dominated by duplicates of an excluded id exhausts the
	// rejection path's attempt budget; the exact filtered path must
	// still produce a correct sample.
	pool := make([]ids.ProcessID, 10000)
	for i := range pool {
		pool[i] = "dup"
	}
	pool[137] = "rare"
	r := rand.New(rand.NewSource(3))
	got := SampleExcluding(r, pool, 1, "dup")
	if len(got) != 1 || got[0] != "rare" {
		t.Errorf("got %v, want [rare]", got)
	}
}
