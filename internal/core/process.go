package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"damulticast/internal/ids"
	"damulticast/internal/membership"
	"damulticast/internal/topic"
	"damulticast/internal/xrand"
)

// Env is the driver-provided environment a Process runs in. The
// simulator implements it with synchronous-round queues and counters;
// the live runtime implements it with transports and channels.
//
// Implementations must be usable from the single goroutine driving the
// Process; the Process itself never spawns goroutines. Drivers that
// run many Processes concurrently (the sharded simulation kernel in
// internal/simnet) must give every Process its own Env with a private
// Rand stream (see xrand.NewStream) and per-process buffers: a Process
// only ever touches its own Env, so per-process Envs need no locking,
// and private streams keep runs deterministic regardless of how
// processes interleave across goroutines.
type Env interface {
	// Send transmits m to the process identified by to, best-effort
	// (the channel may drop it; the paper assumes unreliable links).
	Send(to ids.ProcessID, m *Message)
	// Deliver hands a first-time event to the application.
	Deliver(ev *Event)
	// Neighborhood returns up to k processes from the weakly
	// consistent global overlay (the paper's neighborhood(p), used
	// only during bootstrap). May return fewer, or none.
	Neighborhood(k int) []ids.ProcessID
	// Rand is the process's random source (seedable for
	// reproducibility).
	Rand() *rand.Rand
}

// SendBatcher is an optional Env extension for envs that can transmit
// one message to many targets more cheaply than repeated Send calls —
// the live runtime serializes the message once and fans the same
// frame out to every target. The Process routes its event fan-out and
// leave announcements through it when available.
//
// Contract: targets is only valid for the duration of the call (the
// Process reuses the slice), and m is shared across all targets and
// possibly retained by simulators, so receivers must treat it as
// immutable.
type SendBatcher interface {
	SendBatch(targets []ids.ProcessID, m *Message)
}

// Process is one daMulticast process: a member of exactly one topic
// group (paper §III-A). It is a deterministic message-driven state
// machine: feed it messages via HandleMessage and time via Tick.
//
// Not goroutine-safe; one owner drives it.
type Process struct {
	id     ids.ProcessID
	topic  topic.Topic
	params Params
	env    Env

	// Topic table (Table_l^Ti): partial view over the group of
	// processes interested in the same topic, maintained by the
	// underlying membership substrate.
	topicTable membership.View
	gossiper   *membership.Gossiper

	// Supertopic table (sTable_l^Ti): constant-size set of contacts
	// interested in superKnown. superKnown is super(Ti) when direct
	// superprocesses are known, otherwise the nearest supertopic that
	// "induces" Ti for which contacts were found. Empty topic means
	// "nothing known yet", and then superTable is the zero (empty)
	// View: adoptSuper initializes it on the first adoption.
	superTable membership.View
	superKnown topic.Topic

	// Liveness bookkeeping for the CHECK of Fig. 6: last tick at
	// which each supertopic-table entry proved alive, and the tick at
	// which we last pinged it. Nil until adoptSuper initializes the
	// table; every write is guarded by superTable.Contains, which is
	// false until then.
	superSeen   map[ids.ProcessID]int
	pingStarted int // tick of the outstanding ping wave; -1 if none

	// Multiple-inheritance extension (§VIII): one extra supertopic
	// table per application-declared additional parent topic. Nil
	// until AddExtraSuperTable is called. extraOrder holds the topics
	// sorted: every RNG-consuming or send-emitting walk over the
	// tables uses it, so runs stay deterministic regardless of map
	// iteration order.
	extras     map[topic.Topic]*membership.View
	extraSeen  map[topic.Topic]map[ids.ProcessID]int
	extraOrder []topic.Topic

	seen    *ids.SeenSet
	nextSeq uint64

	// Anti-entropy recovery state (recover.go): the bounded store of
	// recently seen events served to peers, the ticks of the last
	// intra-group and cross-group recovery waves, the learned subgroup
	// contacts the downward cross wave digests to, and the subsystem's
	// counters. store is nil when RecoverPeriod is 0 (recovery
	// disabled); subContacts stays empty unless CrossRecoverPeriod > 0.
	store            *eventStore
	lastRecover      int
	lastCrossRecover int
	subContacts      []subContact
	recoverStats     recoveryCounters

	// batcher caches the env's optional SendBatcher implementation
	// (one type assertion at construction, not one per event).
	batcher SendBatcher
	// accum is the reusable multi-event coalescing accumulator for the
	// batched dissemination paths (batch.go); nil while one is in use.
	accum *batchAccum

	findSuper *findSuperState

	tick         int
	lastShuffle  int
	lastMaintain int

	// stopped marks an unsubscribed/crashed process: it drops all
	// input. The simulator uses this for stillborn failures.
	stopped bool
}

// findSuperState is the FIND_SUPER_CONTACT task (Fig. 4).
type findSuperState struct {
	// searchTopics is the paper's initMsg: the list of supertopics
	// currently searched, deepest first. It grows toward the root on
	// every timeout.
	searchTopics []topic.Topic
	// lastWave is the tick of the last REQCONTACT wave.
	lastWave int
	// reqID tags this task's waves for duplicate suppression.
	reqID uint64
}

// NewProcess creates a process interested in tp, with empty tables.
// The topic table capacity is (B+1)·ln(sizeHint) when
// params.GroupSizeHint > 0, else a default minimum that grows as the
// view fills (re-derived on demand).
func NewProcess(id ids.ProcessID, tp topic.Topic, params Params, env Env) (*Process, error) {
	if !tp.Valid() {
		return nil, fmt.Errorf("core: invalid topic %q", string(tp))
	}
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	cap := xrand.ViewSize(params.GroupSizeHint, params.B)
	if cap < 4 {
		cap = 4 // minimum working view for tiny/unknown groups
	}
	p := &Process{
		id:          id,
		topic:       tp,
		params:      params,
		env:         env,
		seen:        ids.NewSeenSet(params.SeenCap),
		pingStarted: -1,
	}
	p.topicTable.Init(id, cap)
	p.gossiper = membership.NewGossiper(id, &p.topicTable)
	p.batcher, _ = env.(SendBatcher)
	if p.recoveryEnabled() {
		p.store = newEventStore(params.RecoverStoreCap)
	}
	return p, nil
}

// fanout is the scratch a fan-out collects its targets in: the target
// list and its destination-group segmentation. Fan-outs that cross
// group boundaries (dissemination reaching the supergroup, leave
// announcements) carry a different wire Dest per group, so the
// targets are sent one contiguous segment per group.
//
// The scratch is pooled, not owned by a process: it is only needed for
// the duration of one fan-out, so a simulation of N processes fills
// one buffer per worker instead of N, and a fan-out re-entered through
// a synchronous Env simply takes a second buffer.
type fanout struct {
	targets []ids.ProcessID
	segs    []groupSeg
}

var fanoutPool = sync.Pool{New: func() any { return new(fanout) }}

// getFanout takes an empty fan-out scratch from the pool.
func getFanout() *fanout {
	f := fanoutPool.Get().(*fanout)
	f.targets, f.segs = f.targets[:0], f.segs[:0]
	return f
}

// putFanout returns f to the pool once its sends are done. The env
// has not retained the target slice (see SendBatcher).
func putFanout(f *fanout) {
	clear(f.targets)
	fanoutPool.Put(f)
}

// sendToAll transmits one shared message to every target, through the
// env's batch path when it has one. Callers hand over a fan-out's
// scratch targets; the env must not retain them.
func (p *Process) sendToAll(targets []ids.ProcessID, m *Message) {
	if len(targets) == 0 {
		return
	}
	if p.batcher != nil {
		p.batcher.SendBatch(targets, m)
		return
	}
	for _, to := range targets {
		p.env.Send(to, m)
	}
}

// groupSeg marks one destination group's contiguous slice of a batched
// target list: targets[start:end] (start is the previous segment's
// end) all belong to the group subscribed to dest.
type groupSeg struct {
	dest topic.Topic
	end  int
}

// appendSeg closes the segment covering targets added since the last
// boundary. Empty segments are skipped.
func appendSeg(segs []groupSeg, dest topic.Topic, end int) []groupSeg {
	start := 0
	if len(segs) > 0 {
		start = segs[len(segs)-1].end
	}
	if end == start {
		return segs
	}
	return append(segs, groupSeg{dest: dest, end: end})
}

// sendSegments fans one logical message out over a segmented target
// list: each destination group gets its own copy of proto with the
// matching wire Dest, sent via sendToAll (so batch-capable envs still
// serialize once per group). The first segment reuses proto itself —
// the dominant all-intra-group fan-out costs exactly one Message, as
// before segmentation. Receivers may retain the sent messages, so a
// message handed to the env is never mutated again.
func (p *Process) sendSegments(targets []ids.ProcessID, segs []groupSeg, proto *Message) {
	start := 0
	for i, s := range segs {
		m := proto
		if i > 0 {
			cp := *proto
			m = &cp
		}
		m.Dest = s.dest
		p.sendToAll(targets[start:s.end], m)
		start = s.end
	}
}

// MustNewProcess is NewProcess for tests and fixtures with known-good
// arguments.
func MustNewProcess(id ids.ProcessID, tp topic.Topic, params Params, env Env) *Process {
	p, err := NewProcess(id, tp, params, env)
	if err != nil {
		panic(err)
	}
	return p
}

// ID returns the process identifier.
func (p *Process) ID() ids.ProcessID { return p.id }

// Topic returns the topic this process is interested in.
func (p *Process) Topic() topic.Topic { return p.topic }

// Params returns the protocol constants in force.
func (p *Process) Params() Params { return p.params }

// TopicTable returns the current topic-table member ids.
func (p *Process) TopicTable() []ids.ProcessID { return p.topicTable.IDs() }

// SuperTable returns the current supertopic-table member ids.
func (p *Process) SuperTable() []ids.ProcessID { return p.superTable.IDs() }

// SuperKnownTopic returns the topic the supertopic-table entries are
// interested in ("" when the table is uninitialized).
func (p *Process) SuperKnownTopic() topic.Topic { return p.superKnown }

// MemoryComplexity returns the total membership entries held — the
// quantity bounded by ln(S)+c+z in §VI-C (plus z per declared extra
// supertopic under the §VIII multiple-inheritance extension).
func (p *Process) MemoryComplexity() int {
	total := p.topicTable.Len() + p.superTable.Len()
	for _, v := range p.extras {
		total += v.Len()
	}
	return total
}

// Stopped reports whether the process has been stopped.
func (p *Process) Stopped() bool { return p.stopped }

// Stop makes the process inert (crash / unsubscribe). All subsequent
// input is dropped.
func (p *Process) Stop() { p.stopped = true }

// Restart clears the stopped flag (crash-recovery model of §III-A).
// Tables survive; staleness is handled by the membership substrate.
func (p *Process) Restart() { p.stopped = false }

// SeedTopicTable installs contacts into the topic table (bootstrap or
// simulator static setup).
func (p *Process) SeedTopicTable(contacts []ids.ProcessID) {
	p.topicTable.MergeIDs(contacts)
}

// SeedSuperTable installs supertopic contacts known to be interested
// in sup. Used by bootstrap-with-contacts (Fig. 4 lines 5-8) and the
// simulator's static setup.
func (p *Process) SeedSuperTable(sup topic.Topic, contacts []ids.ProcessID) {
	if len(contacts) == 0 {
		return
	}
	p.adoptSuper(sup, contacts)
}

// SetTopicTableCap resizes the topic table (the simulator sizes it as
// (b+1)·ln(S) with the true S).
func (p *Process) SetTopicTableCap(capacity int) { p.topicTable.SetCap(capacity) }

// groupSize estimates S_Ti. With a hint, the hint wins; otherwise we
// invert the (B+1)·ln(S) table-sizing rule on the observed table
// occupancy (floor 2 so ln(S) > 0).
func (p *Process) groupSize() int {
	if p.params.GroupSizeHint > 0 {
		return p.params.GroupSizeHint
	}
	occ := p.topicTable.Len()
	if occ == 0 {
		return 1
	}
	s := int(math.Ceil(math.Exp(float64(occ) / (p.params.B + 1))))
	if s < occ+1 {
		s = occ + 1
	}
	return s
}

// pSel returns the self-election probability g/S (paper §V-B).
func (p *Process) pSel() float64 { return xrand.PSel(p.params.G, p.groupSize()) }

// pA returns the per-superprocess send probability a/z.
func (p *Process) pA() float64 { return xrand.PA(p.params.A, p.params.Z) }

// fanout returns ln(S)+c, the intra-group dissemination fanout.
func (p *Process) fanout() int { return xrand.Fanout(p.groupSize(), p.params.C) }

// adoptSuper merges contacts for topic sup into the supertopic table.
// A strictly deeper (closer to p.topic) supertopic supersedes the old
// table entirely; same-topic contacts merge; shallower ones are
// ignored once something better is known.
func (p *Process) adoptSuper(sup topic.Topic, contacts []ids.ProcessID) {
	if !sup.StrictlyIncludes(p.topic) {
		return // not a supertopic of ours; refuse
	}
	switch {
	case p.superKnown == "" || sup.Depth() > p.superKnown.Depth():
		// Better (deeper) supergroup found: restart the table.
		p.superTable.Init(p.id, p.params.Z)
		if p.superSeen == nil {
			p.superSeen = make(map[ids.ProcessID]int, p.params.Z)
		} else {
			clear(p.superSeen)
		}
		p.superKnown = sup
	case sup != p.superKnown:
		return // shallower than what we already track
	}
	for _, c := range contacts {
		if p.superTable.Add(c) {
			p.superSeen[c] = p.tick
		}
	}
}

// HandleMessage feeds one received message into the state machine.
// Stopped processes drop everything (a crashed process neither
// receives nor sends).
func (p *Process) HandleMessage(m *Message) {
	if p.stopped || m == nil {
		return
	}
	if p.crossRecoveryEnabled() {
		p.noteSubContact(m.From, m.FromTopic)
	}
	switch m.Type {
	case MsgEvent:
		p.onEvent(m)
	case MsgEventBatch:
		p.onEventBatch(m)
	case MsgReqContact:
		p.onReqContact(m)
	case MsgAnsContact:
		p.onAnsContact(m)
	case MsgNewProcessReq:
		p.onNewProcessReq(m)
	case MsgNewProcessAns:
		p.onNewProcessAns(m)
	case MsgShuffle:
		p.onShuffle(m)
	case MsgShuffleReply:
		p.onShuffleReply(m)
	case MsgPing:
		p.onPing(m)
	case MsgPong:
		p.onPong(m)
	case MsgLeave:
		p.onLeave(m)
	case MsgDigest:
		p.onDigest(m)
	case MsgDigestAns:
		p.onDigestAns(m)
	}
}

// Tick advances logical time by one step and runs periodic tasks:
// membership shuffle + aging (ShufflePeriod), KEEP_TABLE_UPDATED
// (MaintainPeriod) and FIND_SUPER_CONTACT timeouts (FindSuperPeriod).
func (p *Process) Tick() {
	if p.stopped {
		return
	}
	p.tick++
	if sp := p.params.ShufflePeriod; sp > 0 && p.tick-p.lastShuffle >= sp {
		p.lastShuffle = p.tick
		p.doShuffle()
	}
	if mp := p.params.MaintainPeriod; mp > 0 && p.tick-p.lastMaintain >= mp {
		p.lastMaintain = p.tick
		p.keepTableUpdated()
	}
	if rp := p.params.RecoverPeriod; rp > 0 && p.tick-p.lastRecover >= rp {
		p.lastRecover = p.tick
		p.doRecover()
	}
	if cp := p.params.CrossRecoverPeriod; cp > 0 && p.tick-p.lastCrossRecover >= cp {
		p.lastCrossRecover = p.tick
		p.doCrossRecover()
	}
	if p.findSuper != nil {
		p.findSuperTick()
	}
}

// Now returns the process's logical tick (for tests).
func (p *Process) Now() int { return p.tick }
