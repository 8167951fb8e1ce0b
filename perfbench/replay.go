package main

import (
	"math/rand"
	"runtime"
	"time"

	"damulticast"
	"damulticast/internal/core"
	"damulticast/internal/ids"
	"damulticast/internal/topic"
	"damulticast/internal/wire"
)

// replayMinTime is how long each replay loop runs at least, so that
// its per-frame figure averages over enough calls.
const replayMinTime = 200 * time.Millisecond

// replay times internal/wire and internal/core on the inbound frames
// the central hub received in the traced window, after the run ended.
func replay(frames [][]byte, l map[string]float64) error {
	if len(frames) == 0 {
		return nil
	}
	msgs := make([]*core.Message, 0, len(frames))
	sizes := make([]float64, 0, len(frames))
	events := 0
	for _, f := range frames {
		m, err := wire.DecodeMessage(f)
		if err != nil {
			return err
		}
		msgs = append(msgs, m)
		sizes = append(sizes, float64(len(f)))
		events += eventCopies(m)
	}
	l["wire.events_per_frame"] = ratio(float64(events), float64(len(frames)))
	l["wire.frame_bytes.p50"] = quantile(sizes, 0.5)

	l["wire.peek_ns_per_frame"] = perFrame(len(frames), func() {
		for _, f := range frames {
			_, _, _ = wire.PeekDest(f)
		}
	})
	dec := wire.NewDecoder()
	decodeAll := func() {
		for _, f := range frames {
			_, _ = dec.Decode(f)
		}
	}
	decodeAll() // fill the decoder's scratch and intern table
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodeAll()
	runtime.ReadMemStats(&after)
	l["wire.decode_allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / float64(len(frames))
	l["wire.decode_ns_per_frame"] = perFrame(len(frames), decodeAll)
	buf := make([]byte, 0, 64<<10)
	l["wire.encode_ns_per_frame"] = perFrame(len(frames), func() {
		for _, m := range msgs {
			buf = wire.AppendMessage(buf[:0], m)
		}
	})

	// core: each pass feeds every frame to a fresh process of the
	// frame's destination topic, set up like a central-hub subscription.
	var env *replayEnv
	var handled int
	pass := func() {
		env = &replayEnv{rng: rand.New(rand.NewSource(1))}
		procs := map[topic.Topic]*core.Process{}
		handled = 0
		for _, m := range msgs {
			p := procs[m.Dest]
			if p == nil {
				p = newReplayProcess(m.Dest, env)
				if p == nil {
					continue
				}
				procs[m.Dest] = p
			}
			p.HandleMessage(m)
			handled++
		}
	}
	l["core.handle_ns_per_frame"] = perFrame(len(msgs), pass)
	l["core.sends_per_frame"] = ratio(float64(env.sends), float64(handled))
	l["core.fresh_per_event_copy"] = ratio(float64(env.delivered), float64(events))
	return nil
}

// perFrame runs fn, which handles n frames, until replayMinTime has
// passed, and returns the mean ns per frame.
func perFrame(n int, fn func()) float64 {
	start := time.Now()
	reps := 0
	for time.Since(start) < replayMinTime || reps == 0 {
		fn()
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n*reps)
}

func eventCopies(m *core.Message) int {
	switch {
	case m.Type == core.MsgEvent && m.Event != nil:
		return 1
	case m.Type == core.MsgEventBatch:
		return len(m.Events)
	}
	return 0
}

// newReplayProcess builds a process for topic tp whose topic table
// holds the two publisher hubs, as the central hub's does in the run.
func newReplayProcess(tp topic.Topic, env *replayEnv) *core.Process {
	params := damulticast.DefaultParams()
	params.GroupSizeHint = liveHubs
	p, err := core.NewProcess("central", tp, params, env)
	if err != nil {
		return nil
	}
	p.SeedTopicTable([]ids.ProcessID{"publisher1", "publisher2"})
	return p
}

// replayEnv is the core.Env of the replay: it counts sends and
// deliveries and transmits nothing.
type replayEnv struct {
	rng              *rand.Rand
	sends, delivered int
}

func (e *replayEnv) Send(ids.ProcessID, *core.Message) { e.sends++ }
func (e *replayEnv) Deliver(*core.Event)               { e.delivered++ }
func (e *replayEnv) Neighborhood(int) []ids.ProcessID  { return nil }
func (e *replayEnv) Rand() *rand.Rand                  { return e.rng }

// runtimeLayer fills the Go runtime metrics of a window that did ops
// units of work.
func runtimeLayer(l map[string]float64, st windowStats, ops float64) {
	l["runtime.gc_cpu_frac"] = st.gcCPUFrac
	l["runtime.alloc_bytes_per_event"] = ratio(st.allocBytes, ops)
	l["runtime.sched_latency_us.p90"] = st.schedLatP90US
}

// overhead reports, per metric, how much the traced window differs
// from the untraced one: traced/untraced - 1.
func overhead(l map[string]float64, traced, untraced map[string]float64) {
	for _, name := range overheadOf {
		l["trace.overhead."+name] = ratio(traced[name], untraced[name]) - 1
	}
}

// zeroOthers reports 0 for every per-layer metric of a layer the
// workload does not cross.
func zeroOthers(l map[string]float64) {
	for _, m := range perLayer {
		if _, ok := l[m.name]; !ok {
			l[m.name] = 0
		}
	}
}
