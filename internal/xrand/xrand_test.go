package xrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"damulticast/internal/ids"
)

func newRand() *rand.Rand { return rand.New(rand.NewSource(1)) }

func pool(n int) []ids.ProcessID {
	out := make([]ids.ProcessID, n)
	for i := range out {
		out[i] = ids.ProcessID(string(rune('a' + i)))
	}
	return out
}

func TestBernoulliExtremes(t *testing.T) {
	r := newRand()
	for i := 0; i < 100; i++ {
		if Bernoulli(r, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(r, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if Bernoulli(r, -0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !Bernoulli(r, 1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := newRand()
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %.4f", got)
	}
}

func TestSampleIDsBasic(t *testing.T) {
	r := newRand()
	p := pool(10)
	got := SampleIDs(r, p, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	seen := map[ids.ProcessID]bool{}
	for _, id := range got {
		if seen[id] {
			t.Fatalf("duplicate %s in sample", id)
		}
		seen[id] = true
	}
}

func TestSampleIDsEdge(t *testing.T) {
	r := newRand()
	if got := SampleIDs(r, nil, 3); got != nil {
		t.Errorf("sample from empty pool = %v", got)
	}
	if got := SampleIDs(r, pool(3), 0); got != nil {
		t.Errorf("sample of 0 = %v", got)
	}
	// k >= len(pool) returns the whole pool (shuffled).
	got := SampleIDs(r, pool(3), 10)
	if len(got) != 3 {
		t.Errorf("len = %d, want 3", len(got))
	}
}

func TestSampleIDsDoesNotMutatePool(t *testing.T) {
	r := newRand()
	p := pool(8)
	orig := make([]ids.ProcessID, len(p))
	copy(orig, p)
	for i := 0; i < 50; i++ {
		SampleIDs(r, p, 3)
	}
	for i := range p {
		if p[i] != orig[i] {
			t.Fatal("pool mutated by SampleIDs")
		}
	}
}

func TestSampleExcluding(t *testing.T) {
	r := newRand()
	p := pool(6)
	excl := []ids.ProcessID{"a", "b"}
	for i := 0; i < 100; i++ {
		got := SampleExcluding(r, p, 4, excl...)
		if len(got) != 4 {
			t.Fatalf("len = %d", len(got))
		}
		for _, id := range got {
			if slices.Contains(excl, id) {
				t.Fatalf("excluded id %s sampled", id)
			}
		}
	}
	// All excluded -> nil.
	if got := SampleExcluding(r, p, 2, p...); got != nil {
		t.Errorf("sample from fully excluded pool = %v", got)
	}
}

func TestPick(t *testing.T) {
	r := newRand()
	if _, ok := Pick(r, nil); ok {
		t.Error("Pick from empty pool reported ok")
	}
	id, ok := Pick(r, pool(1))
	if !ok || id != "a" {
		t.Errorf("Pick = %q, %v", id, ok)
	}
}

func TestFanout(t *testing.T) {
	tests := []struct {
		s    int
		c    float64
		want int
	}{
		{0, 5, 0},
		{-3, 5, 0},
		{1, 0, 1},     // ln(1)=0, floor at 1
		{1000, 5, 12}, // ln(1000)=6.907 -> ceil(11.907)=12
		{100, 5, 10},  // ln(100)=4.605 -> ceil(9.605)=10
		{10, 5, 8},    // ln(10)=2.302 -> ceil(7.302)=8
		{10, -10, 1},  // negative total floors at 1
	}
	for _, tt := range tests {
		if got := Fanout(tt.s, tt.c); got != tt.want {
			t.Errorf("Fanout(%d,%g) = %d, want %d", tt.s, tt.c, got, tt.want)
		}
	}
}

func TestViewSize(t *testing.T) {
	tests := []struct {
		s    int
		b    float64
		want int
	}{
		{0, 3, 0},
		{1000, 3, 28}, // 4*6.907 = 27.63 -> 28
		{100, 3, 19},  // 4*4.605 = 18.42 -> 19
		{10, 3, 10},   // 4*2.302 = 9.21 -> 10
		{1, 3, 1},
	}
	for _, tt := range tests {
		if got := ViewSize(tt.s, tt.b); got != tt.want {
			t.Errorf("ViewSize(%d,%g) = %d, want %d", tt.s, tt.b, got, tt.want)
		}
	}
}

func TestPSelPA(t *testing.T) {
	if got := PSel(5, 1000); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("PSel = %g", got)
	}
	if got := PSel(5, 0); got != 0 {
		t.Errorf("PSel(s=0) = %g", got)
	}
	if got := PSel(50, 10); got != 1 {
		t.Errorf("PSel clamp = %g", got)
	}
	if got := PSel(-1, 10); got != 0 {
		t.Errorf("PSel negative = %g", got)
	}
	if got := PA(1, 3); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("PA = %g", got)
	}
	if got := PA(1, 0); got != 0 {
		t.Errorf("PA(z=0) = %g", got)
	}
	if got := PA(9, 3); got != 1 {
		t.Errorf("PA clamp = %g", got)
	}
	if got := PA(-2, 3); got != 0 {
		t.Errorf("PA negative = %g", got)
	}
}

// Property: samples are always duplicate-free subsets of the pool with
// size min(k, len(pool)).
func TestPropSampleIsSubset(t *testing.T) {
	prop := func(seed int64, n, k uint8) bool {
		r := rand.New(rand.NewSource(seed))
		size := int(n%20) + 1
		p := pool(size)
		kk := int(k % 25)
		got := SampleIDs(r, p, kk)
		want := kk
		if want > size {
			want = size
		}
		if want == 0 {
			return got == nil
		}
		if len(got) != want {
			return false
		}
		inPool := map[ids.ProcessID]bool{}
		for _, id := range p {
			inPool[id] = true
		}
		seen := map[ids.ProcessID]bool{}
		for _, id := range got {
			if !inPool[id] || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: sampling is uniform enough that over many trials every
// element is selected at least once (coverage, not a chi-square test).
func TestSampleCoverage(t *testing.T) {
	r := newRand()
	p := pool(12)
	counts := map[ids.ProcessID]int{}
	for i := 0; i < 2000; i++ {
		for _, id := range SampleIDs(r, p, 3) {
			counts[id]++
		}
	}
	for _, id := range p {
		if counts[id] == 0 {
			t.Errorf("element %s never sampled", id)
		}
	}
}

func BenchmarkSampleIDs(b *testing.B) {
	r := newRand()
	p := make([]ids.ProcessID, 28) // typical topic-table size for S=1000
	for i := range p {
		p[i] = ids.ProcessID(rune('a' + i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SampleIDs(r, p, 12)
	}
}
