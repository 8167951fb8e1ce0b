package sim

import (
	"fmt"
	"testing"

	"damulticast/internal/topic"
)

// Large-scale benchmarks for the sharded kernel: single-topic
// dissemination and dynamic scenarios at 20k-50k processes, far beyond
// the paper's 1110-process setting. Run with -benchtime=1x for a smoke
// pass; the per-iteration metrics report delivery quality alongside
// timing.

// benchDissemination builds a flat n-process group, publishes once and
// drives the kernel to quiescence.
func benchDissemination(b *testing.B, n, workers int) {
	b.Helper()
	var rel float64
	var msgs int64
	for i := 0; i < b.N; i++ {
		cfg := flatConfig(n, int64(i+1), workers)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rel += res.Reliability[topic.Root]
		msgs += res.TotalEvents
	}
	b.ReportMetric(rel/float64(b.N), "delivery")
	b.ReportMetric(float64(msgs)/float64(b.N), "event-msgs")
}

func BenchmarkSharded20k(b *testing.B) { benchDissemination(b, 20000, 0) }
func BenchmarkSharded50k(b *testing.B) { benchDissemination(b, 50000, 0) }

// BenchmarkShardedWorkers compares shard counts at 20k processes; all
// variants produce byte-identical results, only wall clock differs.
func BenchmarkShardedWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchDissemination(b, 20000, workers)
		})
	}
}

// BenchmarkScenarioChurn20k drives the full churn scenario — crash
// wave, flash-crowd recovery, two publications — at 20k processes.
func BenchmarkScenarioChurn20k(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		cfg, sc, err := BuiltinScenario("churn", 20000, 0.3, 0, int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunScenario(cfg, sc)
		if err != nil {
			b.Fatal(err)
		}
		rel += res.Reliability[topic.Root]
	}
	b.ReportMetric(rel/float64(b.N), "delivery")
}

// BenchmarkNewRunnerPaper is the set-up layer of one paper-figure run:
// building the 1,110-process §VII-A topology with its per-process
// streams and statically seeded tables.
func BenchmarkNewRunnerPaper(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := PaperConfig(1, 1)
		cfg.Workers = 1
		if _, err := NewRunner(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunPaper is the dissemination layer of the same run: one
// publication driven to quiescence on a freshly built runner (the
// build itself is not timed).
func BenchmarkRunPaper(b *testing.B) {
	b.ReportAllocs()
	cfg := PaperConfig(1, 1)
	cfg.Workers = 1
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := NewRunner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSharded20kCompletes is the scaled-kernel acceptance gate: a
// 20,000-process single-topic dissemination must complete on the
// sharded kernel and reach the overwhelming majority of the group.
func TestSharded20kCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-process run")
	}
	cfg := flatConfig(20000, 1, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.Rounds >= cfg.MaxRounds {
		t.Errorf("did not quiesce: %d rounds", res.Rounds)
	}
	if rel := res.Reliability[topic.Root]; rel < 0.95 {
		t.Errorf("20k delivery = %g", rel)
	}
	if res.Parasites != 0 {
		t.Errorf("parasites = %d", res.Parasites)
	}
}
