package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"damulticast"
	"damulticast/internal/core"
	"damulticast/internal/wire"
	"damulticast/internal/xrand"
)

// liveConfig is one live workload: three hubs in one process, two of
// them publishing open loop into eight topics that the third, the
// central hub, subscribes to.
type liveConfig struct {
	tcp     bool
	rate    float64 // events per second, all generators together
	batch   int     // events per Publish (1) or PublishBatch call
	payload int     // bytes per event
}

var (
	liveTCP      = liveConfig{tcp: true, rate: 20_000, batch: 1, payload: 100}
	liveMemBatch = liveConfig{tcp: false, rate: 40_000, batch: 16, payload: 1024}
)

const (
	liveTopics     = 8
	liveGenerators = 2 // one generator goroutine per publisher hub
	liveHubs       = 1 + liveGenerators
	liveSetups     = 7 // set-ups per untraced run; setup_s is their median
	// liveSpanEvery keeps the spans of one call in this many: enough
	// traces to read, few enough to keep the span file small.
	liveSpanEvery = 16
	// liveCaptureFrames and liveCaptureBytes bound the inbound frames
	// the traced window keeps for the wire and core replays.
	liveCaptureFrames = 8192
	liveCaptureBytes  = 16 << 20
	// liveSettleQuiet ends a window once the central hub has received
	// nothing new for this long after the last publish.
	liveSettleQuiet = 500 * time.Millisecond
	liveSettleMax   = 10 * time.Second
	// A late generator catches up at liveCatchUp times its rate, with
	// at most liveBurst calls back to back (see catchUp).
	liveCatchUp = 2
	liveBurst   = 16
	// genBehindMS flags a run whose generator fell this far behind its
	// schedule at the 99th percentile: such a run measured the host.
	genBehindMS = 20.0
	// probeKey marks the set-up probes, outside the measured key space.
	probeKey = uint64(1) << 63
)

func liveTopic(i int) string { return fmt.Sprintf(".load%d", i) }

// fillerFor derives the payload filler of a run from its seed.
func fillerFor(seed int64, n int) []byte {
	b := make([]byte, n)
	x := uint64(seed)
	for i := range b {
		x = x*6364136223846793005 + 1442695040888963407
		b[i] = byte(x >> 56)
	}
	return b
}

// payloadFor fills p with the event for key: the key, its due time
// and the run's filler, so that a receiver can rebuild the exact bytes
// it should have received.
func payloadFor(p, filler []byte, key uint64, due int64) {
	copy(p[16:], filler[16:])
	binary.LittleEndian.PutUint64(p[0:], key)
	binary.LittleEndian.PutUint64(p[8:], uint64(due))
}

// liveSystem is one set-up of the live topology and everything the
// benchmark records about it.
type liveSystem struct {
	cfg    liveConfig
	seed   int64
	filler []byte // bytes 16.. of every payload
	hubs   [liveHubs]*damulticast.Hub
	trs    [liveHubs]*countingTransport
	subs   [liveHubs][liveTopics]*damulticast.Subscription

	// Per call (index c): scheduled due time, call duration, lag and
	// whether it succeeded. Each is written by one generator goroutine
	// and read after it has been joined.
	due, callNS, lagNS []int64
	ok                 []bool
	// Per key: receipt time at the central hub (0 = not yet) and, in
	// the traced window, the end of the first receive callback that
	// carried it there.
	recvAt, ingressEnd []atomic.Int64
	// seen is each subscription's delivered-key bitset, owned by its
	// drainer; allocated with the system so that it stays out of the
	// set-up's heap measurement.
	seen          [liveHubs][liveTopics][]uint64
	centralUnique atomic.Int64
	probes        atomic.Int64
	probed        chan struct{} // closed when the central hub has every probe

	tracing    atomic.Bool
	spans      *spanLog
	pubSpan    []atomic.Int64 // per call: ID of its publish span
	captureMu  sync.Mutex
	capture    [][]byte
	captureLen int
	decoders   sync.Pool

	failMu   sync.Mutex
	failures []string
	failN    int

	drainers sync.WaitGroup
}

func newLiveSystem(cfg liveConfig, seed int64, calls int, spans *spanLog) *liveSystem {
	keys := calls * cfg.batch
	s := &liveSystem{
		cfg: cfg, seed: seed, spans: spans, filler: fillerFor(seed, cfg.payload),
		due: make([]int64, calls), callNS: make([]int64, calls), lagNS: make([]int64, calls),
		ok:     make([]bool, calls),
		recvAt: make([]atomic.Int64, keys), ingressEnd: make([]atomic.Int64, keys),
		pubSpan: make([]atomic.Int64, calls),
		probed:  make(chan struct{}),
	}
	for i := range s.seen {
		for t := range s.seen[i] {
			s.seen[i][t] = make([]uint64, (keys+63)/64)
		}
	}
	s.decoders.New = func() any { return wire.NewDecoder() }
	return s
}

func (s *liveSystem) failf(format string, args ...any) {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	s.failN++
	if len(s.failures) < 10 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// start builds the topology: transports, hubs, joins and drainers,
// then publishes one probe per (publisher, topic) and returns once the
// central hub has received every probe.
func (s *liveSystem) start(ctx context.Context) error {
	var mem *damulticast.MemNetwork
	if !s.cfg.tcp {
		mem = damulticast.NewMemNetwork()
	}
	params := damulticast.DefaultParams()
	params.GroupSizeHint = liveHubs
	for i := range s.hubs {
		var tr damulticast.Transport
		var err error
		if mem != nil {
			tr, err = mem.AddTransport(fmt.Sprintf("hub%d", i))
		} else {
			tr, err = damulticast.NewTCPTransport("127.0.0.1:0")
		}
		if err != nil {
			return fmt.Errorf("transport %d: %w", i, err)
		}
		s.trs[i] = &countingTransport{Transport: tr, sys: s, central: i == 0}
		hub, err := damulticast.NewHub(s.trs[i],
			damulticast.WithParams(params),
			damulticast.WithTickInterval(100*time.Millisecond),
			damulticast.WithSeed(xrand.SeedFor(s.seed, fmt.Sprintf("hub:%d", i))),
			damulticast.WithOverflow(damulticast.Block),
			damulticast.WithEventBuffer(4096))
		if err != nil {
			_ = tr.Close()
			return fmt.Errorf("hub %d: %w", i, err)
		}
		s.hubs[i] = hub
		for t := 0; t < liveTopics; t++ {
			var opts []damulticast.JoinOption
			if i > 0 {
				opts = append(opts, damulticast.WithGroupContacts(s.hubs[0].Addr()))
			}
			sub, err := hub.Join(ctx, liveTopic(t), opts...)
			if err != nil {
				return fmt.Errorf("hub %d join %s: %w", i, liveTopic(t), err)
			}
			s.subs[i][t] = sub
			s.drainers.Add(1)
			go s.drain(i, t, sub)
		}
	}
	probe := make([]byte, 16)
	for g := 1; g < liveHubs; g++ {
		for t := 0; t < liveTopics; t++ {
			binary.LittleEndian.PutUint64(probe, probeKey|uint64(g*liveTopics+t))
			if _, err := s.subs[g][t].Publish(ctx, probe); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
		}
	}
	select {
	case <-s.probed:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("probes: %d of %d reached the central hub: %w",
			s.probes.Load(), liveGenerators*liveTopics, ctx.Err())
	}
}

// stop stops every hub and waits for the drainers, which end when the
// hubs close their Events channels.
func (s *liveSystem) stop() {
	for _, h := range s.hubs {
		if h != nil {
			_ = h.Stop()
		}
	}
	s.drainers.Wait()
}

// topicOf is the topic of call c: each generator round-robins over
// all topics.
func topicOf(c int) int { return (c / liveGenerators) % liveTopics }

// drain reads one subscription's deliveries and checks each: the
// payload must be byte-equal to the published one, on the right
// topic, and no key may arrive twice at one subscription.
func (s *liveSystem) drain(hub, t int, sub *damulticast.Subscription) {
	defer s.drainers.Done()
	seen := s.seen[hub][t]
	wantTopic := liveTopic(t)
	for ev := range sub.Events() {
		at := nowNS()
		if len(ev.Payload) < 16 {
			s.failf("hub %d %s: short payload of %d bytes", hub, wantTopic, len(ev.Payload))
			continue
		}
		key := binary.LittleEndian.Uint64(ev.Payload)
		if key&probeKey != 0 {
			if hub == 0 && s.probes.Add(1) == liveGenerators*liveTopics {
				close(s.probed)
			}
			continue
		}
		if key >= uint64(len(s.recvAt)) || ev.Topic != wantTopic {
			s.failf("hub %d %s: event key %d on topic %s", hub, wantTopic, key, ev.Topic)
			continue
		}
		c := int(key) / s.cfg.batch
		if topicOf(c) != t {
			s.failf("hub %d %s: key %d belongs to %s", hub, wantTopic, key, liveTopic(topicOf(c)))
			continue
		}
		if seen[key/64]&(1<<(key%64)) != 0 {
			s.failf("hub %d %s: key %d delivered twice", hub, wantTopic, key)
			continue
		}
		seen[key/64] |= 1 << (key % 64)
		due := int64(binary.LittleEndian.Uint64(ev.Payload[8:]))
		if !bytes.Equal(ev.Payload[16:], s.filler[16:]) || due != atomic.LoadInt64(&s.due[c]) {
			s.failf("hub %d %s: key %d payload differs from the published one", hub, wantTopic, key)
			continue
		}
		if hub == 0 {
			s.recvAt[key].Store(at)
			s.centralUnique.Add(1)
			if s.tracing.Load() && (c+1)%liveSpanEvery == 0 {
				s.spans.add(span{Parent: s.pubSpan[c].Load(), Trace: int64(c + 1),
					Name: "deliver", Start: at, End: at})
			}
		}
	}
}

// liveWindow is one timed interval of open-loop load over the calls
// [first, first+calls).
type liveWindow struct {
	first, calls int
	traced       bool
	stats        windowStats
	start        int64
	published    int64
	uniqueBefore int64 // central hub's unique deliveries before the window
	frames, sent int64 // frames and bytes all hubs sent
	// cpuSamples are (time, process CPU) pairs taken every second from
	// the window's start.
	cpuSamples [][2]int64
}

// sampleCPU reads the process CPU clock at from and every second after
// it until stop is closed.
func sampleCPU(from int64, stop <-chan struct{}) [][2]int64 {
	if d := from - nowNS(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	out := [][2]int64{{nowNS(), cpuNowNS()}}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			out = append(out, [2]int64{nowNS(), cpuNowNS()})
		}
	}
}

// runWindow drives the generators over the window's calls, then waits
// until the central hub has received every published event or has
// gone quiet.
func (s *liveSystem) runWindow(ctx context.Context, w *liveWindow) {
	period := int64(float64(s.cfg.batch) / s.cfg.rate * 1e9) // between calls
	framesBefore, bytesBefore := s.sentTotals()
	w.uniqueBefore = s.centralUnique.Load()
	s.tracing.Store(w.traced)
	win := beginWindow()
	w.start = nowNS() + int64(time.Millisecond)
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		w.cpuSamples = sampleCPU(w.start, stopSampler)
	}()
	var gens sync.WaitGroup
	for g := 0; g < liveGenerators; g++ {
		gens.Add(1)
		go func() {
			defer gens.Done()
			s.generate(ctx, g, w, period)
		}()
	}
	gens.Wait()
	for c := w.first; c < w.first+w.calls; c++ {
		if s.ok[c] {
			w.published += int64(s.cfg.batch)
		}
	}
	s.settle(w)
	w.stats = win.end()
	close(stopSampler)
	sampler.Wait()
	s.tracing.Store(false)
	framesAfter, bytesAfter := s.sentTotals()
	w.frames, w.sent = framesAfter-framesBefore, bytesAfter-bytesBefore
}

// generate is generator g: it makes every liveGenerators-th call of
// the window from its own publisher hub, each at its due time. A call
// that is late goes out as soon as the generator's catch-up bucket
// lets it; its lateness is recorded and counted in its delivery
// latency, which is measured from the due time.
func (s *liveSystem) generate(ctx context.Context, g int, w *liveWindow, period int64) {
	hub := 1 + g
	payloads := make([][]byte, s.cfg.batch)
	bucket := newCatchUp(period*liveGenerators, w.start)
	for c := w.first + g; c < w.first+w.calls; c += liveGenerators {
		due := w.start + int64(c-w.first)*period
		atomic.StoreInt64(&s.due[c], due)
		if d := due - nowNS(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		bucket.take()
		for i := range payloads {
			payloads[i] = make([]byte, s.cfg.payload)
			payloadFor(payloads[i], s.filler, uint64(c*s.cfg.batch+i), due)
		}
		sub := s.subs[hub][topicOf(c)]
		sampled := w.traced && (c+1)%liveSpanEvery == 0
		var id int64
		if sampled {
			id = s.spans.newID()
			s.pubSpan[c].Store(id)
		}
		t0 := nowNS()
		var err error
		if s.cfg.batch == 1 {
			_, err = sub.Publish(ctx, payloads[0])
		} else {
			_, err = sub.PublishBatch(ctx, payloads)
		}
		t1 := nowNS()
		s.lagNS[c], s.callNS[c], s.ok[c] = t0-due, t1-t0, err == nil
		if err != nil {
			s.failf("publish call %d: %v", c, err)
		}
		if sampled {
			s.spans.add(span{ID: id, Trace: int64(c + 1), Name: "publish", Start: t0, End: t1})
		}
	}
}

// catchUp paces one generator's late calls. Tokens accrue at
// liveCatchUp times the generator's rate, at most liveBurst in hand,
// and every call takes one; on schedule the bucket stays full. A
// generator the host has stalled for tens of milliseconds owes
// hundreds of calls: sent back to back they would reach the hubs at
// several times the knee rate, an overload run that measures the stall
// rather than the workload, so it catches up at liveCatchUp times its
// rate instead.
type catchUp struct {
	every  float64 // ns per token
	tokens float64
	at     int64
}

func newCatchUp(genPeriod, start int64) *catchUp {
	return &catchUp{every: float64(genPeriod) / liveCatchUp, tokens: liveBurst, at: start}
}

func (b *catchUp) take() {
	for {
		if now := nowNS(); now > b.at {
			b.tokens = min(liveBurst, b.tokens+float64(now-b.at)/b.every)
			b.at = now
		}
		if b.tokens >= 1 {
			b.tokens--
			return
		}
		time.Sleep(time.Duration((1 - b.tokens) * b.every))
	}
}

func (s *liveSystem) settle(w *liveWindow) {
	deadline := time.Now().Add(liveSettleMax)
	last, quietSince := int64(-1), time.Now()
	for time.Now().Before(deadline) {
		got := s.centralUnique.Load() - w.uniqueBefore
		if got >= w.published {
			return
		}
		if got != last {
			last, quietSince = got, time.Now()
		} else if time.Since(quietSince) > liveSettleQuiet {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *liveSystem) sentTotals() (frames, sent int64) {
	for _, t := range s.trs {
		frames += t.frames.Load()
		sent += t.bytes.Load()
	}
	return frames, sent
}

// windowE2E derives the end-to-end metrics of one window from its
// one-second slices (events by due time, CPU by wall time). The first
// second is warm-up and left out when there are others. Other tenants
// of the host only ever add latency, in bursts that last from
// milliseconds to tens of seconds, so each latency percentile is that
// of the best remaining second; CPU per event, which such bursts barely
// move, is the median over the remaining seconds. It also returns the
// slices and the pooled latency for the record.
func (s *liveSystem) windowE2E(w *liveWindow) (map[string]float64, liveDetail) {
	nSlices := int(float64(w.calls)*float64(s.cfg.batch)/s.cfg.rate) + 1
	lat := make([][]int64, nSlices)
	var calls []float64
	var all, recvd []int64
	var lastRecv int64
	for k := w.first * s.cfg.batch; k < (w.first+w.calls)*s.cfg.batch; k++ {
		if at := s.recvAt[k].Load(); at != 0 {
			due := s.due[k/s.cfg.batch]
			i := min(int((due-w.start)/1e9), nSlices-1)
			lat[i] = append(lat[i], at-due)
			all = append(all, at-due)
			recvd = append(recvd, at)
			lastRecv = max(lastRecv, at)
		}
	}
	for c := w.first; c < w.first+w.calls; c++ {
		if s.ok[c] {
			calls = append(calls, float64(s.callNS[c])/float64(s.cfg.batch))
		}
	}
	var d liveDetail
	for i, q := range []float64{0.5, 0.75, 0.9, 0.99, 1} {
		d.Pooled[i] = nsQuantile(all, q, 1e3)
	}
	minN := int(s.cfg.rate / 10)
	for _, l := range lat {
		if len(l) >= minN {
			d.SliceP50 = append(d.SliceP50, nsQuantile(l, 0.5, 1e3))
			d.SliceP90 = append(d.SliceP90, nsQuantile(l, 0.9, 1e3))
		}
	}
	for i := 1; i < len(w.cpuSamples); i++ {
		a, b := w.cpuSamples[i-1], w.cpuSamples[i]
		n := 0
		for _, at := range recvd {
			if at >= a[0] && at < b[0] {
				n++
			}
		}
		if n > 0 {
			d.SliceCPU = append(d.SliceCPU, float64(b[1]-a[1])/1e3/float64(n))
		}
	}
	cpu := steady(d.SliceCPU)
	if len(cpu) == 0 {
		cpu = []float64{ratio(float64(w.stats.cpuNS)/1e3, float64(len(recvd)))}
	}
	return map[string]float64{
		"deliver_p50_us":   minOf(steady(d.SliceP50)),
		"deliver_p90_us":   minOf(steady(d.SliceP90)),
		"cpu_us_per_event": median(cpu),
		"delivered_frac":   ratio(float64(len(recvd)), float64(w.published)),
		"runs_per_s":       ratio(float64(len(recvd)), float64(lastRecv-w.start)/1e9),
		"publish_s":        quantile(calls, 0.5) / 1e9,
	}, d
}

// steady drops the warm-up slice when later ones exist.
func steady(xs []float64) []float64 {
	if len(xs) > 1 {
		return xs[1:]
	}
	return xs
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// liveDetail is what a live record shows of its measured window: the
// pooled delivery latency (p50, p75, p90, p99, max, in µs) and every
// one-second slice's p50, p90 and CPU µs per event.
type liveDetail struct {
	Pooled   [5]float64 `json:"deliver_us_p50_p75_p90_p99_max"`
	SliceP50 []float64  `json:"slice_deliver_p50_us"`
	SliceP90 []float64  `json:"slice_deliver_p90_us"`
	SliceCPU []float64  `json:"slice_cpu_us_per_event"`
}

// hubDrops is one hub's drop counters from Hub.Stats.
type hubDrops struct {
	Overflow          int64 `json:"overflow_frames"`
	Unrouted          int64 `json:"unrouted_frames"`
	Malformed         int64 `json:"malformed_frames"`
	DroppedDeliveries int64 `json:"dropped_deliveries"`
}

func (d hubDrops) total() int64 {
	return d.Overflow + d.Unrouted + d.Malformed + d.DroppedDeliveries
}

// liveAccounting is the loss account every live run prints.
type liveAccounting struct {
	Published        int64      `json:"published"`
	Delivered        int64      `json:"delivered_unique"`
	LossFrac         float64    `json:"loss_frac"`
	PublishErrors    int64      `json:"publish_errors"`
	SendErrors       int64      `json:"send_errors"`
	Hubs             []hubDrops `json:"hubs"`
	UnattributedLoss bool       `json:"unattributed_loss"`
	// LostDueS is when the first and last lost events were due, in
	// seconds from the start of the first window; -1 without loss.
	LostDueS       [2]float64 `json:"lost_due_s_first_last"`
	GeneratorLagMS [4]float64 `json:"gen_lag_ms_p50_p90_p99_max"`
	Window         liveDetail `json:"window"`
}

func runLive(o options, cfg liveConfig) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	calls := int(o.seconds * cfg.rate / float64(cfg.batch))
	calls -= calls % liveGenerators
	if calls < 2*liveGenerators {
		return nil, fmt.Errorf("--seconds %g is too short for %g events/s", o.seconds, cfg.rate)
	}
	spans := &spanLog{}
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}

	// Set up several times and keep the last system; setup_s and
	// heap_bytes_per_proc are medians over the set-ups.
	setups := liveSetups
	if o.trace {
		setups = 1
	}
	var setupS, heapPer []float64
	var sys *liveSystem
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.stop()
		}
		sys = newLiveSystem(cfg, o.seed, calls, spans)
		before := heapAlloc()
		t0 := time.Now()
		if err := sys.start(ctx); err != nil {
			sys.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		heapPer = append(heapPer, (heapAlloc()-before)/(liveHubs*liveTopics))
	}
	defer sys.stop()
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["heap_bytes_per_proc"] = median(heapPer)

	var windows []*liveWindow
	if o.trace {
		half := calls / 2
		half -= half % liveGenerators
		windows = []*liveWindow{{first: 0, calls: half}, {first: half, calls: calls - half, traced: true}}
	} else {
		windows = []*liveWindow{{first: 0, calls: calls}}
	}
	for _, w := range windows {
		sys.runWindow(ctx, w)
	}
	stats := make([]hubDrops, liveHubs)
	for i, h := range sys.hubs {
		st := h.Stats()
		stats[i] = hubDrops{st.OverflowFrames, st.UnroutedFrames, st.MalformedFrames, st.DroppedDeliveries}
	}
	sys.stop()

	acc := liveAccounting{Hubs: stats}
	var lags []int64
	for c := 0; c < calls; c++ {
		if sys.ok[c] {
			acc.Published += int64(cfg.batch)
		} else {
			acc.PublishErrors++
		}
		lags = append(lags, sys.lagNS[c])
	}
	acc.LostDueS = [2]float64{-1, -1}
	for k := range sys.recvAt {
		if sys.recvAt[k].Load() != 0 {
			acc.Delivered++
			continue
		}
		at := float64(sys.due[k/cfg.batch]-windows[0].start) / 1e9
		if acc.LostDueS[0] < 0 {
			acc.LostDueS[0] = at
		}
		acc.LostDueS[1] = at
	}
	acc.LossFrac = 1 - ratio(float64(acc.Delivered), float64(acc.Published))
	var counted int64
	for i, t := range sys.trs {
		acc.SendErrors += t.errors.Load()
		counted += stats[i].total()
	}
	counted += acc.SendErrors
	acc.UnattributedLoss = acc.Delivered < acc.Published && counted == 0
	acc.GeneratorLagMS = [4]float64{nsQuantile(lags, 0.5, 1e6), nsQuantile(lags, 0.9, 1e6),
		nsQuantile(lags, 0.99, 1e6), nsQuantile(lags, 1, 1e6)}
	last := windows[len(windows)-1]
	m, detail := sys.windowE2E(last)
	acc.Window = detail
	rep.accounting = acc
	if acc.UnattributedLoss {
		rep.flags = append(rep.flags, "unattributed_loss")
	}
	if acc.GeneratorLagMS[2] > genBehindMS {
		rep.flags = append(rep.flags, "generator_behind")
	}
	rep.attempted = int64(calls * cfg.batch)
	rep.failed = rep.attempted - acc.Delivered
	sys.failMu.Lock()
	rep.failures = append(rep.failures, sys.failures...)
	if sys.failN > len(sys.failures) {
		rep.fail("%d more delivery check failures", sys.failN-len(sys.failures))
	}
	sys.failMu.Unlock()

	for k, v := range m {
		rep.e2e[k] = v
	}
	if o.trace {
		untraced, _ := sys.windowE2E(windows[0])
		if err := sys.layerMetrics(rep, last, m, untraced); err != nil {
			return nil, err
		}
		if err := rep.writeSpans(o, spans); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// layerMetrics fills the per-layer metrics from the traced window w.
func (s *liveSystem) layerMetrics(rep *report, w *liveWindow, traced, untraced map[string]float64) error {
	l := rep.layer
	var calls, lags, ingress []int64
	for c := w.first; c < w.first+w.calls; c++ {
		calls = append(calls, s.callNS[c])
		lags = append(lags, s.lagNS[c])
	}
	for k := w.first * s.cfg.batch; k < (w.first+w.calls)*s.cfg.batch; k++ {
		at, in := s.recvAt[k].Load(), s.ingressEnd[k].Load()
		if at != 0 && in != 0 && at >= in {
			ingress = append(ingress, at-in)
		}
	}
	l["hub.publish_call_us.p50"] = nsQuantile(calls, 0.5, 1e3)
	l["hub.publish_call_us.p90"] = nsQuantile(calls, 0.9, 1e3)
	l["hub.publish_self_us.p50"] = nsQuantile(selfTimes(s.spans.all())["publish"], 0.5, 1e3)
	l["hub.ingress_to_deliver_us.p50"] = nsQuantile(ingress, 0.5, 1e3)
	acc := rep.accounting.(liveAccounting)
	for _, st := range acc.Hubs {
		l["hub.overflow_frames"] += float64(st.Overflow)
		l["hub.unrouted_frames"] += float64(st.Unrouted)
		l["hub.malformed_frames"] += float64(st.Malformed)
		l["hub.dropped_deliveries"] += float64(st.DroppedDeliveries)
	}
	var send, recv []int64
	for _, t := range s.trs {
		t.mu.Lock()
		send = append(send, t.sendNS...)
		recv = append(recv, t.recvNS...)
		t.mu.Unlock()
	}
	l["transport.send_us.p50"] = nsQuantile(send, 0.5, 1e3)
	l["transport.send_us.p90"] = nsQuantile(send, 0.9, 1e3)
	l["transport.recv_handler_us.p50"] = nsQuantile(recv, 0.5, 1e3)
	l["transport.recv_handler_us.p90"] = nsQuantile(recv, 0.9, 1e3)
	l["transport.frames_per_event"] = ratio(float64(w.frames), float64(w.published))
	l["transport.bytes_per_event"] = ratio(float64(w.sent), float64(w.published))
	l["transport.send_errors"] = float64(acc.SendErrors)

	s.captureMu.Lock()
	frames := s.capture
	s.captureMu.Unlock()
	if err := replay(frames, l); err != nil {
		return err
	}
	runtimeLayer(l, w.stats, float64(w.published))
	l["gen.lag_ms.p99"] = nsQuantile(lags, 0.99, 1e6)
	l["trace.spans"] = float64(len(s.spans.all()))
	overhead(l, traced, untraced)
	zeroOthers(l)
	return nil
}

// countingTransport decorates a hub's transport. It always counts
// frames, bytes and send errors; while the system is tracing it also
// times every Send and receive callback, finds the frame's trace id
// with its own decoder, records sampled spans and, at the central hub,
// keeps a sample of inbound frames for the wire and core replays.
type countingTransport struct {
	damulticast.Transport
	sys     *liveSystem
	central bool

	frames, bytes, errors atomic.Int64
	mu                    sync.Mutex
	sendNS, recvNS        []int64
}

func (t *countingTransport) Send(addr string, p []byte) error {
	s := t.sys
	if !s.tracing.Load() {
		err := t.Transport.Send(addr, p)
		t.count(len(p), err)
		return err
	}
	t0 := nowNS()
	err := t.Transport.Send(addr, p)
	t1 := nowNS()
	t.count(len(p), err)
	t.mu.Lock()
	t.sendNS = append(t.sendNS, t1-t0)
	t.mu.Unlock()
	if c, ok := s.firstCall(p, nil); ok && (c+1)%liveSpanEvery == 0 {
		s.spans.add(span{Parent: s.pubSpan[c].Load(), Trace: int64(c + 1),
			Name: "transport.send", Start: t0, End: t1})
	}
	return err
}

func (t *countingTransport) count(n int, err error) {
	t.frames.Add(1)
	t.bytes.Add(int64(n))
	if err != nil {
		t.errors.Add(1)
	}
}

func (t *countingTransport) SetHandler(h func([]byte)) {
	t.Transport.SetHandler(func(p []byte) {
		s := t.sys
		if !s.tracing.Load() {
			h(p)
			return
		}
		// The hub owns p once h is called: read and copy it first.
		var keys []uint64
		c, isEvent := s.firstCall(p, &keys)
		if t.central {
			s.keep(p)
		}
		t0 := nowNS()
		h(p)
		t1 := nowNS()
		t.mu.Lock()
		t.recvNS = append(t.recvNS, t1-t0)
		t.mu.Unlock()
		if !isEvent {
			return
		}
		if t.central {
			for _, k := range keys {
				s.ingressEnd[k].CompareAndSwap(0, t1)
			}
		}
		if (c+1)%liveSpanEvery == 0 {
			s.spans.add(span{Parent: s.pubSpan[c].Load(), Trace: int64(c + 1),
				Name: "transport.recv", Start: t0, End: t1})
		}
	})
}

// firstCall decodes frame p and returns the call that published its
// first event, appending every measured key it carries to keys when
// keys is non-nil. ok is false for frames without measured events.
func (s *liveSystem) firstCall(p []byte, keys *[]uint64) (c int, ok bool) {
	dec := s.decoders.Get().(*wire.Decoder)
	defer s.decoders.Put(dec)
	m, err := dec.Decode(p)
	if err != nil {
		return 0, false
	}
	evs := m.Events
	if m.Event != nil {
		evs = []*core.Event{m.Event}
	}
	first := -1
	for _, ev := range evs {
		if len(ev.Payload) < 8 {
			continue
		}
		k := binary.LittleEndian.Uint64(ev.Payload)
		if k&probeKey != 0 || k >= uint64(len(s.recvAt)) {
			continue
		}
		if first < 0 {
			first = int(k) / s.cfg.batch
		}
		if keys != nil {
			*keys = append(*keys, k)
		}
	}
	return first, first >= 0
}

// keep copies an inbound frame of the central hub into the replay
// sample while the sample has room.
func (s *liveSystem) keep(p []byte) {
	s.captureMu.Lock()
	defer s.captureMu.Unlock()
	if len(s.capture) >= liveCaptureFrames || s.captureLen+len(p) > liveCaptureBytes {
		return
	}
	s.capture = append(s.capture, bytes.Clone(p))
	s.captureLen += len(p)
}
