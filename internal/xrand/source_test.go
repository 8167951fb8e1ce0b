package xrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sourceSeeds covers the normalization edge cases of rngSource.Seed:
// zero (replaced by a fixed seed), negatives, multiples of 2³¹−1
// (which also normalize to zero) and the int64 extremes.
var sourceSeeds = []int64{
	0, 1, -1, 42, -42, 89482311,
	int32max, -int32max, 2 * int32max, 7 * int32max, int32max - 1, int32max + 1,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	SeedFor(1, "proc:.t1.t2/17"), SeedFor(1, "loss:.t1.t2/17"),
}

// drawsPastBoundary is comfortably past the 273-draw point at which a
// lazy source builds its register.
const drawsPastBoundary = 2 * rngLen

// matchStreams draws from both generators through every method the
// protocol uses and fails on the first divergence.
func matchStreams(t testing.TB, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w int64
		switch i % 5 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = int64(got.Intn(1000)), int64(want.Intn(1000))
		case 2:
			g, w = int64(math.Float64bits(got.Float64())), int64(math.Float64bits(want.Float64()))
		case 3:
			g, w = int64(got.Uint64()), int64(want.Uint64())
		case 4:
			g, w = int64(got.Intn(1<<40)), int64(want.Intn(1<<40))
		}
		if g != w {
			t.Fatalf("seed %d: draw %d differs: got %d, want %d", seed, i, g, w)
		}
	}
	gp, wp := got.Perm(37), want.Perm(37)
	if !slices.Equal(gp, wp) {
		t.Fatalf("seed %d: Perm differs: got %v, want %v", seed, gp, wp)
	}
	gs, ws := make([]int, 50), make([]int, 50)
	for i := range gs {
		gs[i], ws[i] = i, i
	}
	got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
	want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
	if !slices.Equal(gs, ws) {
		t.Fatalf("seed %d: Shuffle differs: got %v, want %v", seed, gs, ws)
	}
}

func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range sourceSeeds {
		matchStreams(t, seed, New(seed), rand.New(rand.NewSource(seed)), drawsPastBoundary)
	}
}

// TestSourceBoundary checks every raw draw up to and well past the
// point where the closed form of the first 273 draws hands over to the
// built register.
func TestSourceBoundary(t *testing.T) {
	for _, seed := range []int64{0, 1, -5, math.MinInt64} {
		got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < rngLen+rngTap+5; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: raw draw %d: got %#x, want %#x", seed, i+1, g, w)
			}
		}
	}
}

// TestSourceReseed checks Seed on a lazy source, on one whose
// register is built, and via rand.Rand.Seed (which also resets the
// Rand's own buffered state).
func TestSourceReseed(t *testing.T) {
	for _, seed := range sourceSeeds {
		got, want := New(1), rand.New(rand.NewSource(1))
		matchStreams(t, 1, got, want, 10) // still lazy
		got.Seed(seed)
		want.Seed(seed)
		matchStreams(t, seed, got, want, drawsPastBoundary) // builds the register
		got.Seed(seed ^ 0x5a5a)
		want.Seed(seed ^ 0x5a5a)
		matchStreams(t, seed^0x5a5a, got, want, drawsPastBoundary) // reuses it
	}
}

func TestNewStreamMatchesStdlib(t *testing.T) {
	got := NewStream(7, "proc:.t1/3")
	want := rand.New(rand.NewSource(SeedFor(7, "proc:.t1/3")))
	matchStreams(t, 7, got, want, drawsPastBoundary)
}

func FuzzStreamMatchesStdlib(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed, uint16(rngTap))
	}
	f.Add(int64(3), uint16(0))
	f.Add(int64(-3), uint16(2*rngLen))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		matchStreams(t, seed, New(seed), rand.New(rand.NewSource(seed)), int(n%(3*rngLen)))
	})
}

// BenchmarkNewStreamFirstDraws is the per-process cost a simulation
// pays: build a stream and take a handful of draws.
func BenchmarkNewStreamFirstDraws(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewStream(int64(i), "proc:x")
		for j := 0; j < 12; j++ {
			r.Int63()
		}
	}
}

// BenchmarkSourceBuild is the one-off cost of building the register
// (paid by a stream that crosses the 273-draw boundary) against stdlib
// seeding, which builds it up front.
func BenchmarkSourceBuild(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		s := newSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
			s.build()
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		s := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			s.Seed(int64(i))
		}
	})
}
