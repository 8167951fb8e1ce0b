package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// base anchors every timestamp the benchmark takes: offsets from it
// use the monotonic clock and fit in an int64 of nanoseconds.
var base = time.Now()

func nowNS() int64 { return int64(time.Since(base)) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (the same rule as numpy's default). xs is
// sorted in place. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// nsQuantile is quantile over nanosecond samples, scaled by div
// (1e3 for µs, 1e6 for ms).
func nsQuantile(ns []int64, q, div float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / div
	}
	return quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// medianOf returns the median over groups of each group's q-quantile
// of nanosecond samples, scaled by div.
func medianOf(groups [][]int64, q, div float64) float64 {
	per := make([]float64, len(groups))
	for i, g := range groups {
		per[i] = nsQuantile(g, q, div)
	}
	return median(per)
}

// cpuNowNS returns the process's user and system CPU time.
func cpuNowNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// window measures one timed interval of a workload: process CPU
// time, plus the Go runtime's GC CPU, allocation and
// scheduling-latency counters.
type window struct {
	cpuNS int64
	rt    []metrics.Sample
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func beginWindow() *window {
	return &window{cpuNS: cpuNowNS(), rt: readRuntime()}
}

// windowStats is what a window measured between beginWindow and end.
type windowStats struct {
	cpuNS         int64
	gcCPUFrac     float64
	allocBytes    float64
	schedLatP90US float64
}

func (w *window) end() windowStats {
	st := windowStats{cpuNS: cpuNowNS() - w.cpuNS}
	after := readRuntime()
	gc := after[0].Value.Float64() - w.rt[0].Value.Float64()
	total := after[1].Value.Float64() - w.rt[1].Value.Float64()
	st.gcCPUFrac = ratio(gc, total)
	st.allocBytes = float64(after[2].Value.Uint64() - w.rt[2].Value.Uint64())
	st.schedLatP90US = 1e6 * histDeltaQuantile(
		w.rt[3].Value.Float64Histogram(), after[3].Value.Float64Histogram(), 0.9)
	return st
}

// histDeltaQuantile returns the q-quantile of the samples a runtime
// histogram gained between two reads, taken at the upper edge of the
// bucket it falls in (the lower edge for the open last bucket).
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	var n uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		n += delta[i]
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= rank {
			edge := after.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = after.Buckets[i]
			}
			return edge
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// heapAlloc returns the live heap in bytes after a full collection.
func heapAlloc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// fingerprint identifies the host and the code a record was measured
// on. Records whose fingerprints differ are never compared (see
// compare.go).
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	GitCommit  string `json:"git_commit"`
	SourceHash string `json:"source_sha256"`
}

func hostFingerprint(seed int64, commit string) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Seed:       seed,
		GitCommit:  commit,
		SourceHash: sourceHash("."),
	}
}

// host is the part of a fingerprint that decides whether two records
// were measured under the same conditions: everything but the seed and
// the code version.
func (f fingerprint) host() fingerprint {
	f.Seed, f.GitCommit, f.SourceHash = 0, "", ""
	return f
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root, so
// that a record names the code it measured even in a checkout that is
// not a git repository. Hidden directories (build output) are skipped.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	slices.Sort(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(f))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
