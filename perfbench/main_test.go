package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"damulticast/internal/scale"
)

// TestMetricsMatchBenchmarkJSON keeps the program's metric catalogue
// and workload names in step with BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestPinnedDigests recomputes the result digests of the default seed
// that runs of sim-sweep and scale-1m must reproduce.
func TestPinnedDigests(t *testing.T) {
	_, _, simDigest, err := simSweep(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if simDigest != pinnedSimDigest[1] {
		t.Errorf("sim-sweep digest for seed 1 = %s, pinned %s", simDigest, pinnedSimDigest[1])
	}
	if testing.Short() {
		t.Skip("scale-1m builds a million-process kernel")
	}
	k, err := scale.New(scaleConfig(1, scaleWorkers))
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	c, err := (&scaleRunner{k: k}).run(rep)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest != pinnedScaleDigest[1] || len(rep.failures) > 0 {
		t.Errorf("scale-1m digest for seed 1 = %s (failures %v), pinned %s", c.digest, rep.failures, pinnedScaleDigest[1])
	}
}

// TestLiveRuns drives both live workloads briefly, untraced and
// traced, through the command's own entry point.
func TestLiveRuns(t *testing.T) {
	for _, wl := range []string{"live-tcp", "live-mem-batch"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{"--workload", wl, "--seed", "3", "--seconds", "0.5",
					"--trace", trace, "--out", t.TempDir()}, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line: %v\n%s", code, err, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if code != 0 || !res.Correct || len(res.Metrics) != len(want) || res.Attempted < 1 {
					t.Fatalf("exit %d correct %v with %d metrics\n%s", code, res.Correct, len(res.Metrics), out.String())
				}
			})
		}
	}
}

// TestFailedCheckPrintsNoMetrics pins the failure protocol: the
// failure is printed, the metrics are not, and the exit code is 1.
func TestFailedCheckPrintsNoMetrics(t *testing.T) {
	rep := &report{attempted: 1, e2e: map[string]float64{}}
	for _, m := range endToEnd {
		rep.e2e[m.name] = 1
	}
	rep.fail("key %d delivered twice", 7)
	var out bytes.Buffer
	code := emit(&out, options{workload: "live-tcp", outDir: t.TempDir()}, fingerprint{}, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if code != 1 || res.Correct || len(res.Metrics) != 0 || !strings.Contains(out.String(), "FAIL key 7 delivered twice") {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out.String())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 0.9: 3.7, 1: 4} {
		if got := quantile(slices.Clone(xs), q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "publish", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "transport.send", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "transport.send", Start: 20, End: 40},
		{ID: 4, Parent: 1, Name: "transport.recv", Start: 90, End: 130},
	}
	self := selfTimes(spans)
	// Children cover [10,40) and [90,100) of the publish span.
	if got := self["publish"]; len(got) != 1 || got[0] != 60 {
		t.Errorf("publish self time %v, want [60]", got)
	}
	if got := self["transport.send"]; !slices.Equal(got, []int64{20, 20}) {
		t.Errorf("send self times %v", got)
	}
}
