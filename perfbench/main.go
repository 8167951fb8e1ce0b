// Command perfbench is the repository benchmark. It runs one named
// workload from a seed for a fixed time and prints, as the last line
// of standard output, one JSON object with a correctness verdict and
// every metric by name and unit:
//
//	perfbench --workload live-tcp --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 runs the workload untraced for half the time and traced
// for the other half, and reports the per-layer metrics, the tracing
// overhead and the span file it wrote. README.md describes every
// workload and metric; run.py builds this program and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// metricSpec names one reported metric and its unit. The two lists
// below mirror BENCHMARK.json (TestMetricsMatchBenchmarkJSON).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"deliver_p50_us", "us"},
	{"deliver_p90_us", "us"},
	{"cpu_us_per_event", "us"},
	{"delivered_frac", "frac"},
	{"runs_per_s", "1/s"},
	{"publish_s", "s"},
	{"heap_bytes_per_proc", "B"},
}

// overheadOf lists the end-to-end metrics whose traced/untraced ratio
// is reported as tracing overhead.
var overheadOf = []string{"deliver_p50_us", "cpu_us_per_event", "runs_per_s", "publish_s"}

var perLayer = []metricSpec{
	{"hub.publish_call_us.p50", "us"},
	{"hub.publish_call_us.p90", "us"},
	{"hub.publish_self_us.p50", "us"},
	{"hub.ingress_to_deliver_us.p50", "us"},
	{"hub.overflow_frames", "count"},
	{"hub.unrouted_frames", "count"},
	{"hub.malformed_frames", "count"},
	{"hub.dropped_deliveries", "count"},
	{"transport.send_us.p50", "us"},
	{"transport.send_us.p90", "us"},
	{"transport.recv_handler_us.p50", "us"},
	{"transport.recv_handler_us.p90", "us"},
	{"transport.frames_per_event", "count"},
	{"transport.bytes_per_event", "B"},
	{"transport.send_errors", "count"},
	{"wire.peek_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.decode_allocs_per_frame", "count"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.events_per_frame", "count"},
	{"wire.frame_bytes.p50", "B"},
	{"core.handle_ns_per_frame", "ns"},
	{"core.sends_per_frame", "count"},
	{"core.fresh_per_event_copy", "frac"},
	{"sim.build_ms.p50", "ms"},
	{"sim.run_ms.p50", "ms"},
	{"sim.ns_per_event_msg", "ns"},
	{"sim.rounds_per_run", "count"},
	{"sim.event_msgs_per_run", "count"},
	{"sim.delivered_per_event_msg", "frac"},
	{"experiment.parallel_eff", "frac"},
	{"scale.build_s", "s"},
	{"scale.run_s_per_pub", "s"},
	{"scale.ns_per_event_msg", "ns"},
	{"scale.rounds_per_pub", "count"},
	{"scale.state_bytes_per_proc", "B"},
	{"scale.serial_speedup", "x"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"runtime.sched_latency_us.p90", "us"},
	{"gen.lag_ms.p99", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead.deliver_p50_us", "frac"},
	{"trace.overhead.cpu_us_per_event", "frac"},
	{"trace.overhead.runs_per_s", "frac"},
	{"trace.overhead.publish_s", "frac"},
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	commit   string
	outDir   string
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	failures          []string
	flags             []string
	e2e               map[string]float64
	layer             map[string]float64
	accounting        any
	spanFile          string
}

// writeSpans writes the run's spans under o.outDir and notes the file.
func (r *report) writeSpans(o options, spans *spanLog) error {
	r.spanFile = filepath.Join(o.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	return spans.write(r.spanFile)
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*report, error){
	"live-tcp":       func(o options) (*report, error) { return runLive(o, liveTCP) },
	"live-mem-batch": func(o options) (*report, error) { return runLive(o, liveMemBatch) },
	"sim-sweep":      runSimSweep,
	"scale-1m":       runScale,
}

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var compare string
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	fs.StringVar(&o.commit, "commit", "none", "commit id recorded in the fingerprint")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for records and span files")
	fs.StringVar(&compare, "compare", "", "summarize a records file by host fingerprint instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare != "" {
		if err := compareRecords(compare, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o.trace = traceFlag == 1
	fp := hostFingerprint(o.seed, o.commit)

	rep, err := fn(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return emit(stdout, o, fp, rep)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of a run, appended to records.jsonl and
// printed before the result line.
type record struct {
	Workload    string      `json:"workload"`
	Trace       bool        `json:"trace"`
	Seconds     float64     `json:"seconds"`
	Fingerprint fingerprint `json:"fingerprint"`
	Flags       []string    `json:"flags"`
	Failures    []string    `json:"failures,omitempty"`
	Accounting  any         `json:"accounting,omitempty"`
	SpanFile    string      `json:"span_file,omitempty"`
	Result      result      `json:"result"`
}

// emit prints the record and the result line. A run that failed a
// correctness check prints the failures instead of metrics and exits
// non-zero.
func emit(stdout io.Writer, o options, fp fingerprint, rep *report) int {
	if rep.attempted < 1 {
		rep.fail("no operation attempted")
	}
	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricValue{},
	}
	specs, values := endToEnd, rep.e2e
	if o.trace {
		specs, values = perLayer, rep.layer
	}
	if res.Correct {
		for _, m := range specs {
			v, ok := values[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report %s\n", o.workload, m.name)
				return 1
			}
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}
	rec := record{
		Workload: o.workload, Trace: o.trace, Seconds: o.seconds, Fingerprint: fp, Flags: rep.flags,
		Failures: rep.failures, Accounting: rep.accounting, SpanFile: rep.spanFile, Result: res,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "record %s\n", line)
	if err := appendRecord(filepath.Join(o.outDir, "records.jsonl"), line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keeping record:", err)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, line []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
