package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"time"

	"damulticast/internal/experiment"
	"damulticast/internal/sim"
	"damulticast/internal/xrand"
)

const (
	simPoints       = 10 // alive fractions 0.1 .. 1.0
	simRunsPerPoint = 10
	simRuns         = simPoints * simRunsPerPoint
	simSweepWorkers = 2
	simSetups       = 5
	simProcesses    = 1110
)

// simRun is what the benchmark keeps of one run of the sweep.
type simRun struct {
	start, built, end int64 // ns: job start, NewRunner done, Run done
	rounds            int
	events, delivered int64
	parasites         int64
	reached, alive    float64            // alive processes reached, and alive
	groups            map[string]float64 // Result.Reliability by topic
	digest            string
	bad               string // a failed check, if any
}

// simJob builds and runs sweep run j of the Fig. 10 sweep for seed.
func simJob(seed int64, j int) (simRun, error) {
	xs := sim.FigureXs("fig10", simPoints)
	pi, run := j/simRunsPerPoint, j%simRunsPerPoint
	cfg := sim.PaperConfig(xs[pi], xrand.SeedFor(seed, fmt.Sprintf("fig:fig10:point:%d:run:%d", pi, run)))
	cfg.Workers = 1
	r := simRun{start: nowNS(), groups: map[string]float64{}}
	runner, err := sim.NewRunner(cfg)
	if err != nil {
		return r, err
	}
	r.built = nowNS()
	res, err := runner.Run()
	if err != nil {
		return r, err
	}
	r.end = nowNS()
	r.rounds, r.events, r.parasites = res.Rounds, res.TotalEvents, res.Parasites
	r.delivered = res.KindTotals["delivered"]

	var b strings.Builder
	fmt.Fprintf(&b, "run %d rounds %d events %d parasites %d", j, res.Rounds, res.TotalEvents, res.Parasites)
	for _, k := range slices.Sorted(maps.Keys(res.KindTotals)) {
		fmt.Fprintf(&b, " %s=%d", k, res.KindTotals[k])
	}
	for _, tp := range slices.Sorted(maps.Keys(res.Reliability)) {
		rel, all := res.Reliability[tp], res.ReliabilityAll[tp]
		fmt.Fprintf(&b, " %s:%v/%v", tp, rel, all)
		r.groups[string(tp)] = rel
		r.reached += res.DeliveredAlive[tp]
		r.alive += float64(res.Alive[tp])
		if rel < 0 || rel > 1 || all < 0 || all > 1 {
			r.bad = fmt.Sprintf("run %d: reliability of %s out of [0,1]: %v, %v", j, tp, rel, all)
		}
	}
	if res.Parasites != 0 {
		r.bad = fmt.Sprintf("run %d: %d parasite deliveries", j, res.Parasites)
	}
	r.digest = b.String()
	return r, nil
}

// simSweep runs the 100 runs of one sweep through experiment.Map and
// returns them in index order with the sweep's wall time and digest.
func simSweep(ctx context.Context, seed int64) ([]simRun, int64, string, error) {
	t0 := nowNS()
	runs, err := experiment.Map(ctx, simSweepWorkers, simRuns,
		func(_ context.Context, j int) (simRun, error) { return simJob(seed, j) })
	wall := nowNS() - t0
	if err != nil {
		return nil, 0, "", err
	}
	h := sha256.New()
	for _, r := range runs {
		h.Write([]byte(r.digest))
		h.Write([]byte{'\n'})
	}
	return runs, wall, hex.EncodeToString(h.Sum(nil))[:16], nil
}

// simWindow is the sweeps one timed window ran: runs in order, and
// each sweep's wall and CPU time.
type simWindow struct {
	runs          []simRun
	wallNS, cpuNS []int64
	stats         windowStats
}

// sweepSeed is the seed of a window's k-th sweep: the run's seed for
// the first and one derived from it for each later one, so that a
// window times several sweeps' worth of topologies instead of one
// sweep over and over, and its medians depend less on what one seed
// happens to build.
func sweepSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return xrand.SeedFor(seed, fmt.Sprintf("sweep:%d", k))
}

// runSimWindow runs sweeps until the window is over. digest is the
// first sweep's digest: set by the first window, checked by later ones.
func runSimWindow(ctx context.Context, seed int64, seconds float64, spans *spanLog, rep *report, digest *string) (*simWindow, error) {
	w := &simWindow{}
	win := beginWindow()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Start another unit only while at least half of one is left, so
	// that the window ends close to its deadline.
	var unit time.Duration
	for unit == 0 || time.Now().Add(unit/2).Before(deadline) {
		cpu0 := cpuNowNS()
		k := len(w.wallNS)
		runs, wall, d, err := simSweep(ctx, sweepSeed(seed, k))
		if err != nil {
			return nil, err
		}
		w.cpuNS = append(w.cpuNS, cpuNowNS()-cpu0)
		w.wallNS = append(w.wallNS, wall)
		unit = time.Duration(wall)
		if k == 0 {
			if *digest == "" {
				*digest = d
			} else if d != *digest {
				rep.fail("sweep digest %s differs from the first window's %s", d, *digest)
			}
		}
		for _, r := range runs {
			if r.bad != "" {
				rep.fail("%s", r.bad)
			}
		}
		if spans != nil {
			for j, r := range runs {
				trace := int64(len(w.runs) + j + 1)
				job := spans.newID()
				spans.add(span{ID: job, Trace: trace, Name: "experiment.job", Start: r.start, End: r.end})
				spans.add(span{Parent: job, Trace: trace, Name: "sim.build", Start: r.start, End: r.built})
				spans.add(span{Parent: job, Trace: trace, Name: "sim.run", Start: r.built, End: r.end})
			}
		}
		w.runs = append(w.runs, runs...)
	}
	w.stats = win.end()
	return w, nil
}

// e2e derives the end-to-end metrics of a window as medians over its
// sweeps.
func (w *simWindow) e2e() map[string]float64 {
	var lat, run [][]int64
	var rate, cpu []float64
	var reached, alive float64
	for i, wall := range w.wallNS {
		var l, r []int64
		for _, x := range w.runs[i*simRuns : (i+1)*simRuns] {
			l = append(l, x.end-x.start)
			r = append(r, x.end-x.built)
			reached += x.reached
			alive += x.alive
		}
		lat, run = append(lat, l), append(run, r)
		rate = append(rate, simRuns/(float64(wall)/1e9))
		cpu = append(cpu, float64(w.cpuNS[i])/1e3/simRuns)
	}
	return map[string]float64{
		"deliver_p50_us":   medianOf(lat, 0.5, 1e3),
		"deliver_p90_us":   medianOf(lat, 0.9, 1e3),
		"cpu_us_per_event": median(cpu),
		"delivered_frac":   reached / alive,
		"runs_per_s":       median(rate),
		"publish_s":        medianOf(run, 0.5, 1e9),
	}
}

func runSimSweep(o options) (*report, error) {
	ctx := context.Background()
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}

	// Set-up: building the §VII-A system with every process alive,
	// several times; setup_s and heap_bytes_per_proc are medians.
	var setupS, heapPer []float64
	setups := simSetups
	if o.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		cfg := sim.PaperConfig(1, xrand.SeedFor(o.seed, fmt.Sprintf("setup:%d", i)))
		cfg.Workers = 1
		before := heapAlloc()
		t0 := time.Now()
		runner, err := sim.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heapPer = append(heapPer, (heapAlloc()-before)/simProcesses)
		runtime.KeepAlive(runner)
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["heap_bytes_per_proc"] = median(heapPer)

	var digest string
	var spans *spanLog
	secs := o.seconds
	var untraced *simWindow
	if o.trace {
		secs /= 2
		var err error
		if untraced, err = runSimWindow(ctx, o.seed, secs, nil, rep, &digest); err != nil {
			return nil, err
		}
		spans = &spanLog{}
	}
	w, err := runSimWindow(ctx, o.seed, secs, spans, rep, &digest)
	if err != nil {
		return nil, err
	}
	// The run's own seed is swept once more, untimed: the same sweep
	// must give the same digest.
	if _, _, d, err := simSweep(ctx, o.seed); err != nil {
		return nil, err
	} else if d != digest {
		rep.fail("sweep digest %s differs from the first sweep's %s", d, digest)
	}
	if want, ok := pinnedSimDigest[o.seed]; ok && digest != want {
		rep.fail("sweep digest %s for seed %d, pinned %s", digest, o.seed, want)
	}
	groups := map[string]float64{}
	for _, r := range w.runs {
		for tp, rel := range r.groups {
			groups[tp] += rel / float64(len(w.runs))
		}
	}
	rep.accounting = map[string]any{"sweeps": len(w.wallNS), "runs": len(w.runs), "digest": digest, "reliability": groups}
	rep.attempted = int64(len(w.runs))
	m := w.e2e()
	for k, v := range m {
		rep.e2e[k] = v
	}
	if !o.trace {
		return rep, nil
	}

	l := rep.layer
	var build, run []int64
	var runNS, jobNS, rounds, events, delivered float64
	for _, r := range w.runs {
		build = append(build, r.built-r.start)
		run = append(run, r.end-r.built)
		runNS += float64(r.end - r.built)
		jobNS += float64(r.end - r.start)
		rounds += float64(r.rounds)
		events += float64(r.events)
		delivered += float64(r.delivered)
	}
	n := float64(len(w.runs))
	l["sim.build_ms.p50"] = nsQuantile(build, 0.5, 1e6)
	l["sim.run_ms.p50"] = nsQuantile(run, 0.5, 1e6)
	l["sim.ns_per_event_msg"] = ratio(runNS, events)
	l["sim.rounds_per_run"] = rounds / n
	l["sim.event_msgs_per_run"] = events / n
	l["sim.delivered_per_event_msg"] = ratio(delivered, events)
	var sweepNS int64
	for _, wall := range w.wallNS {
		sweepNS += wall
	}
	l["experiment.parallel_eff"] = jobNS / (float64(sweepNS) * simSweepWorkers)
	runtimeLayer(l, w.stats, n)
	l["trace.spans"] = float64(len(spans.all()))
	overhead(l, m, untraced.e2e())
	zeroOthers(l)
	if err := rep.writeSpans(o, spans); err != nil {
		return nil, err
	}
	return rep, nil
}
