package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"time"

	"damulticast/internal/core"
	"damulticast/internal/scale"
	"damulticast/internal/sim"
)

const (
	scaleN = 1_000_000
	// scalePublications is three times the four the scale figure's
	// sizing used: how many rounds a publication takes depends on
	// whether it reaches the upper groups, so fewer publications make
	// the time per publication swing with the seed.
	scalePublications = 12
	scaleWorkers      = 2
	scaleSetups       = 9 // one set-up varies ±15% within a run; setup_s is their median
)

// scaleGroups is the paper's 1:10:100 three-level shape at n
// processes, the same split the scale figure uses.
func scaleGroups(n int) []scale.GroupSpec {
	t0, t1, t2 := sim.PaperTopics()
	n0, n1 := n/111, n*10/111
	return []scale.GroupSpec{
		{Topic: t0, Size: n0},
		{Topic: t1, Size: n1},
		{Topic: t2, Size: n - n0 - n1},
	}
}

func scaleConfig(seed int64, workers int) scale.Config {
	_, _, t2 := sim.PaperTopics()
	return scale.Config{
		Groups:       scaleGroups(scaleN),
		Params:       core.DefaultParams(),
		PSucc:        0.85,
		PublishTopic: t2,
		Publications: scalePublications,
		MaxRounds:    200,
		Seed:         seed,
		Workers:      workers,
	}
}

// scaleCall is one Kernel.Run: its wall time and the result's digest.
// The kernel's registry accumulates across calls, so counts are the
// difference from the previous call.
type scaleCall struct {
	start, end int64
	cpuNS      int64
	rounds     int
	events     int64
	reached    float64            // share of all processes reached per publication
	groups     map[string]float64 // Result.Reliability by topic
	digest     string
}

type scaleRunner struct {
	k          *scale.Kernel
	prevEvents int64
	prevKinds  map[string]int64
}

func (r *scaleRunner) run(rep *report) (scaleCall, error) {
	size := map[string]int{}
	for _, g := range scaleGroups(scaleN) {
		size[string(g.Topic)] = g.Size
	}
	cpu0 := cpuNowNS()
	c := scaleCall{start: nowNS(), groups: map[string]float64{}}
	res, err := r.k.Run()
	if err != nil {
		return c, err
	}
	c.end = nowNS()
	c.cpuNS = cpuNowNS() - cpu0
	c.rounds = res.Rounds
	c.events = res.TotalEvents - r.prevEvents
	r.prevEvents = res.TotalEvents
	var b strings.Builder
	fmt.Fprintf(&b, "rounds %d events %d state %d", res.Rounds, c.events, res.StateBytes)
	for _, k := range slices.Sorted(maps.Keys(res.KindTotals)) {
		fmt.Fprintf(&b, " %s=%d", k, res.KindTotals[k]-r.prevKinds[k])
	}
	if n := res.KindTotals["parasite"] - r.prevKinds["parasite"]; n != 0 {
		rep.fail("scale kernel: %d parasite deliveries", n)
	}
	r.prevKinds = res.KindTotals
	for _, tp := range slices.Sorted(maps.Keys(res.Reliability)) {
		rel := res.Reliability[tp]
		fmt.Fprintf(&b, " %s:%v", tp, rel)
		c.groups[string(tp)] = rel
		c.reached += rel * float64(size[string(tp)]) / scaleN
		if rel < 0 || rel > 1 {
			rep.fail("scale kernel: reliability of %s out of [0,1]: %v", tp, rel)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	c.digest = hex.EncodeToString(sum[:])[:16]
	return c, nil
}

// runScaleWindow calls Kernel.Run until seconds have passed.
func runScaleWindow(r *scaleRunner, seconds float64, rep *report, digest *string) ([]scaleCall, windowStats, error) {
	var calls []scaleCall
	win := beginWindow()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Start another unit only while at least half of one is left, so
	// that the window ends close to its deadline.
	var unit time.Duration
	for unit == 0 || time.Now().Add(unit/2).Before(deadline) {
		c, err := r.run(rep)
		if err != nil {
			return nil, windowStats{}, err
		}
		if *digest == "" {
			*digest = c.digest
		} else if c.digest != *digest {
			rep.fail("Kernel.Run digest %s differs from the first call's %s", c.digest, *digest)
		}
		calls = append(calls, c)
		unit = time.Duration(c.end - c.start)
	}
	return calls, win.end(), nil
}

// scaleE2E derives the end-to-end metrics of a window as medians over
// its Kernel.Run calls.
func scaleE2E(calls []scaleCall) map[string]float64 {
	var perPub []int64
	var rate, cpu []float64
	for _, c := range calls {
		perPub = append(perPub, (c.end-c.start)/scalePublications)
		rate = append(rate, scalePublications/(float64(c.end-c.start)/1e9))
		cpu = append(cpu, float64(c.cpuNS)/1e3/scalePublications)
	}
	return map[string]float64{
		"deliver_p50_us":   nsQuantile(perPub, 0.5, 1e3),
		"deliver_p90_us":   nsQuantile(perPub, 0.9, 1e3),
		"cpu_us_per_event": median(cpu),
		"delivered_frac":   calls[0].reached,
		"runs_per_s":       median(rate),
		"publish_s":        nsQuantile(perPub, 0.5, 1e9),
	}
}

func runScale(o options) (*report, error) {
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	setups := scaleSetups
	if o.trace {
		setups = 1
	}
	spans := &spanLog{}
	var setupS, heapPer []float64
	var k *scale.Kernel
	for i := 0; i < setups; i++ {
		k = nil // release the previous kernel before measuring the heap
		before := heapAlloc()
		t0 := nowNS()
		var err error
		if k, err = scale.New(scaleConfig(o.seed, scaleWorkers)); err != nil {
			return nil, err
		}
		t1 := nowNS()
		spans.add(span{Name: "scale.build", Start: t0, End: t1})
		setupS = append(setupS, float64(t1-t0)/1e9)
		heapPer = append(heapPer, (heapAlloc()-before)/scaleN)
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["heap_bytes_per_proc"] = median(heapPer)

	r := &scaleRunner{k: k}
	var digest string
	secs := o.seconds
	var untraced map[string]float64
	if o.trace {
		secs /= 2
		calls, _, err := runScaleWindow(r, secs, rep, &digest)
		if err != nil {
			return nil, err
		}
		untraced = scaleE2E(calls)
	}
	calls, st, err := runScaleWindow(r, secs, rep, &digest)
	if err != nil {
		return nil, err
	}
	if want, ok := pinnedScaleDigest[o.seed]; ok && digest != want {
		rep.fail("Kernel.Run digest %s for seed %d, pinned %s", digest, o.seed, want)
	}
	rep.accounting = map[string]any{"run_calls": len(calls), "publications": len(calls) * scalePublications,
		"digest": digest, "reliability": calls[0].groups}
	rep.attempted = int64(len(calls) * scalePublications)
	m := scaleE2E(calls)
	for name, v := range m {
		rep.e2e[name] = v
	}
	if !o.trace {
		return rep, nil
	}

	l := rep.layer
	var wall, events, rounds float64
	for i, c := range calls {
		spans.add(span{Trace: int64(i*scalePublications + 1), Name: "scale.run", Start: c.start, End: c.end})
		wall += float64(c.end - c.start)
		events += float64(c.events)
		rounds += float64(c.rounds)
	}
	pubs := float64(len(calls) * scalePublications)
	l["scale.build_s"] = setupS[0]
	l["scale.run_s_per_pub"] = wall / 1e9 / pubs
	l["scale.ns_per_event_msg"] = ratio(wall, events)
	l["scale.rounds_per_pub"] = rounds / pubs
	l["scale.state_bytes_per_proc"] = float64(k.StateBytes()) / scaleN
	runtimeLayer(l, st, pubs)

	// The same seed on one worker: it must give the same result, and
	// the ratio of wall times is the kernel's parallel speedup. The
	// parallel kernel is released first so that only one is live.
	r, k = nil, nil
	runtime.GC()
	t0 := nowNS()
	serialK, err := scale.New(scaleConfig(o.seed, 1))
	if err != nil {
		return nil, err
	}
	spans.add(span{Name: "scale.build", Start: t0, End: nowNS()})
	serial := &scaleRunner{k: serialK}
	sc, err := serial.run(rep)
	if err != nil {
		return nil, err
	}
	spans.add(span{Trace: int64(len(calls)*scalePublications + 1), Name: "scale.run", Start: sc.start, End: sc.end})
	if sc.digest != digest {
		rep.fail("Kernel.Run digest on 1 worker %s differs from %d workers' %s", sc.digest, scaleWorkers, digest)
	}
	l["scale.serial_speedup"] = float64(sc.end-sc.start) / (wall / float64(len(calls)))
	l["trace.spans"] = float64(len(spans.all()))
	overhead(l, m, untraced)
	zeroOthers(l)
	if err := rep.writeSpans(o, spans); err != nil {
		return nil, err
	}
	return rep, nil
}
