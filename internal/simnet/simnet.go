// Package simnet is a deterministic, round-based message-passing
// kernel for protocol simulation. It reproduces the paper's simulator
// semantics (§VII-A): synchronous gossip rounds, unreliable best-effort
// channels (per-message Bernoulli loss with success probability
// psucc), and two failure models —
//
//   - stillborn: a process is failed from the start, for everyone
//     (Figs. 8-10), and
//   - per-observer (weakly consistent): a process can appear failed to
//     one observer while appearing alive to another (Fig. 11); the
//     appearance is fixed per (observer, target) pair for the run.
//
// Messages sent in round r are delivered in round r+1.
//
// # Sharded parallel execution
//
// The kernel partitions its nodes into P shards (Workers; default
// GOMAXPROCS) and runs each round's HandleMessage/Tick phase
// concurrently, one goroutine per shard. Determinism is preserved by
// construction, not by locks:
//
//   - every node draws randomness from its own stream, never from a
//     shared source, so the interleaving of shards cannot change what
//     any node observes;
//   - channel-loss coins are drawn from a per-sender stream owned by
//     the kernel, in the sender's deterministic send order;
//   - per-pair failure appearances (SetPairDown) and link filters
//     (SetLinkDown) must be pure functions — PairDownCoin builds one
//     from a stateless hash;
//   - sends buffer into per-shard outboxes during the phase and merge
//     into the next round's queue in a canonical order, sorted by
//     (From, To, Seq), after all shards join. OnSend observers fire
//     serially during the merge, in that same canonical order.
//
// Consequently a run's full observable behavior — deliveries, their
// order, loss decisions, OnSend sequences — is byte-identical for every
// worker count, including Workers=1 (the sequential kernel).
//
// Contract for nodes under parallel execution: HandleMessage and Tick
// may touch only the node's own state, and Send during a phase must
// use the handling node's own id as From. Mutating kernel topology
// (AddNode, Crash, Recover, SetPairDown, SetLinkDown, Workers) is
// legal only between rounds.
package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"damulticast/internal/ids"
	"damulticast/internal/xrand"
)

// Node is a simulated process: a message-driven state machine.
// Under parallel execution HandleMessage and Tick are invoked from the
// shard goroutine owning the node; they must not touch other nodes'
// state or shared mutable structures.
type Node interface {
	// ID returns the node's identity.
	ID() ids.ProcessID
	// HandleMessage processes one delivered message.
	HandleMessage(msg any)
	// Tick advances the node's logical clock one round.
	Tick()
}

// Envelope is one in-flight message. Seq is the per-sender send
// counter, part of the canonical (From, To, Seq) merge order.
type Envelope struct {
	From, To ids.ProcessID
	Seq      uint64
	Msg      any
}

// Errors.
var (
	ErrDuplicateNode = errors.New("simnet: duplicate node id")
	ErrUnknownNode   = errors.New("simnet: unknown node id")
)

// pendingSend is a buffered send attempt: the loss decision is made at
// send time (from the sender's deterministic streams) and carried to
// the serial merge, where OnSend observes it in canonical order. delay
// is the number of extra rounds (beyond the normal next-round delivery)
// the link keeps the message in flight. rank is the sender's position
// in ascending-id order — the first key of the canonical order, and
// how the merge recovers the sender's id.
type pendingSend struct {
	to      ids.ProcessID
	seq     uint64
	msg     any
	rank    int32
	delay   int32
	dropped bool
}

// peer is the kernel's state for one known id — a registered node, a
// sender that is not one (a test driver injecting traffic), or both —
// so that sending and delivering cost one map lookup per end. A node
// has its insertion index (which places it in a shard) and its crash
// mark; a sender has its monotonic send counter, its loss stream
// (created on the first loss coin) and its rank in ascending-id order.
// Each peer is only ever written by the goroutine currently running
// its node, or serially between rounds, so no locking is needed.
type peer struct {
	id    ids.ProcessID
	node  Node // nil for a sender that is not a node
	index int  // insertion index; -1 for a sender that is not a node
	down  bool
	rank  int32
	seq   uint64
	loss  *rand.Rand
}

// shard is one worker's round state. Every buffer is recycled across
// rounds (and, through scratchPool, across networks), so it is
// allocated only while it grows to the largest round.
type shard struct {
	// in is this round's deliveries to the shard's nodes, in canonical
	// order (unused with one shard, which delivers the batch itself).
	in []Envelope
	// out collects the sends the shard's nodes make during the phase,
	// in send order; after the phase, order lists out's indexes in
	// canonical order (the sends themselves never move).
	out   []pendingSend
	order []int32
	// count is the sort's per-rank scratch.
	count     []int
	delivered int
}

// roundScratch is a network's recycled round state: the spare buffer
// that double-buffers with the delivery queue, the shards' buffers and
// the merge's read positions. A network that quiesces hands its
// scratch, its emptied queue buffer included, to scratchPool and takes
// one back on its next Step. The runs of a sweep, each a fresh
// Network, thereby reuse the buffers earlier runs grew instead of
// growing their own.
type roundScratch struct {
	queue, spare []Envelope
	shards       []shard
	heads        []int
}

var scratchPool = sync.Pool{New: func() any { return new(roundScratch) }}

// Network is the simulation kernel.
type Network struct {
	seed  int64
	rng   *rand.Rand
	peers map[ids.ProcessID]*peer
	nodes []*peer // insertion order, for deterministic iteration

	queue    []Envelope // deliveries for the next round, canonical order
	round    int
	stepping bool // inside a parallel phase: Sends buffer to outboxes
	block    int  // during a phase: nodes per shard (see shardOf)

	// delayed holds messages kept in flight by the link-delay function,
	// keyed by delivery round. Allocated lazily: runs without delays
	// never touch it. Within a bucket, envelopes appear in the order
	// their sends were merged (canonical per round, rounds ascending),
	// and a round delivers its bucket before the regular queue — older
	// sends first.
	delayed map[int][]Envelope

	// senders lists every peer in ascending id order — the order of
	// the round merge, and the source of each peer's rank.
	// sendersDirty marks it stale after new peers appear (only legal
	// between rounds); the next Step re-sorts it once instead of paying
	// an ordered insert per add.
	senders      []*peer
	sendersDirty bool

	// scratch is the recycled per-Step state (the kernel's rounds are
	// allocation-free at steady state); nil while the network is
	// quiescent and has lent it out (see roundScratch).
	scratch *roundScratch

	// PSucc is the per-message channel success probability (1 = lossless).
	PSucc float64

	// TickNodes controls whether Step ticks every node each round.
	TickNodes bool

	// Workers is the shard count P. 0 selects GOMAXPROCS; 1 runs the
	// round phase inline (the sequential kernel). Results are identical
	// for every value.
	Workers int

	// pairDown, when non-nil, implements the weakly consistent model:
	// pairDown(observer, target) reports whether target appears failed
	// to observer; such sends are dropped. Must be a pure function.
	pairDown func(observer, target ids.ProcessID) bool

	// linkDown, when non-nil, drops sends whose (from, to) link it
	// reports severed — the partition primitive. Must be a pure
	// function.
	linkDown func(from, to ids.ProcessID) bool

	// linkDelay, when non-nil, returns the extra rounds a send spends
	// in flight beyond the normal next-round delivery (straggler
	// links). Must be a pure function of its arguments.
	linkDelay func(from, to ids.ProcessID, seq uint64) int

	// OnSend, when non-nil, observes every send attempt. dropped
	// reports whether the channel lost it (loss, dead target, severed
	// link, or per-observer failure appearance). Counting happens here:
	// the paper's message complexity counts events *sent*. During a
	// parallel phase the callback fires at the serial merge, in
	// canonical (From, To, Seq) order.
	OnSend func(env Envelope, dropped bool)

	// OnRoundEnd, when non-nil, runs serially at the very end of every
	// Step, after all shards joined and outboxes merged. Drivers use it
	// to flush per-node effect buffers in deterministic order.
	OnRoundEnd func(round int)
}

// New creates a lossless network with the given seed.
func New(seed int64) *Network {
	return &Network{
		seed:  seed,
		rng:   xrand.New(seed),
		peers: make(map[ids.ProcessID]*peer),
		PSucc: 1,
	}
}

// Rand exposes the network's serial deterministic random source, for
// setup, failure installation and publish-site selection between
// rounds. Nodes must NOT draw from it — give each node its own stream
// (xrand.NewStream) so parallel rounds stay deterministic.
func (n *Network) Rand() *rand.Rand { return n.rng }

// Seed returns the seed the network was created with.
func (n *Network) Seed() int64 { return n.seed }

// Round returns the current round number (0 before the first Step).
func (n *Network) Round() int { return n.round }

// AddNode registers a node.
func (n *Network) AddNode(node Node) error {
	id := node.ID()
	pr := n.peerFor(id)
	if pr.node != nil {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, id)
	}
	pr.node, pr.index = node, len(n.nodes)
	n.nodes = append(n.nodes, pr)
	return nil
}

// peerFor returns the state for id, creating and registering it on
// first sight. Reusing an existing peer matters for ids that sent
// before being registered as nodes: their Seq counter must keep
// climbing, never restart — the merge order relies on (From, Seq)
// uniqueness — and n.senders must list each sender exactly once.
// Creating a peer is only legal between rounds.
func (n *Network) peerFor(id ids.ProcessID) *peer {
	if pr, ok := n.peers[id]; ok {
		return pr
	}
	pr := &peer{id: id, index: -1}
	n.peers[id] = pr
	n.senders = append(n.senders, pr)
	n.sendersDirty = true
	return pr
}

// node returns the registered node's state, or nil.
func (n *Network) node(id ids.ProcessID) *peer {
	if pr := n.peers[id]; pr != nil && pr.node != nil {
		return pr
	}
	return nil
}

// Node returns the registered node, or nil.
func (n *Network) Node(id ids.ProcessID) Node {
	if pr := n.node(id); pr != nil {
		return pr.node
	}
	return nil
}

// NodeIDs returns all node ids in insertion order (copy).
func (n *Network) NodeIDs() []ids.ProcessID {
	out := make([]ids.ProcessID, len(n.nodes))
	for i, pr := range n.nodes {
		out[i] = pr.id
	}
	return out
}

// Len returns the number of nodes.
func (n *Network) Len() int { return len(n.nodes) }

// Crash marks a node failed for everyone (stillborn when applied
// before the first round). Crashed nodes neither receive nor should
// send; sends they nevertheless attempt are delivered (the kernel does
// not police senders — protocol-level Stop should silence them).
func (n *Network) Crash(id ids.ProcessID) error {
	pr := n.node(id)
	if pr == nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, id)
	}
	pr.down = true
	return nil
}

// Recover clears the crashed mark.
func (n *Network) Recover(id ids.ProcessID) {
	if pr := n.peers[id]; pr != nil {
		pr.down = false
	}
}

// Down reports whether id is crashed.
func (n *Network) Down(id ids.ProcessID) bool {
	pr := n.peers[id]
	return pr != nil && pr.down
}

// AliveIDs returns ids of nodes not crashed, in insertion order.
func (n *Network) AliveIDs() []ids.ProcessID {
	out := make([]ids.ProcessID, 0, len(n.nodes))
	for _, pr := range n.nodes {
		if !pr.down {
			out = append(out, pr.id)
		}
	}
	return out
}

// SetPairDown installs the weakly consistent failure view (Fig. 11
// model). f must be a pure function: it is called concurrently from
// shard goroutines. Pass nil to clear.
func (n *Network) SetPairDown(f func(observer, target ids.ProcessID) bool) {
	n.pairDown = f
}

// SetLinkDown installs a link filter: sends for which f(from, to)
// reports true are dropped (network partitions, correlated link
// failures). f must be a pure function: it is called concurrently from
// shard goroutines. Pass nil to heal.
func (n *Network) SetLinkDown(f func(from, to ids.ProcessID) bool) {
	n.linkDown = f
}

// SetLinkDelay installs a per-send delay function: f(from, to, seq)
// returns how many EXTRA rounds the message stays in flight beyond the
// normal next-round delivery (0 = deliver normally). f must be a pure
// function of its arguments: it is evaluated at send time, possibly on
// a shard goroutine. Pass nil to restore uniform one-round links.
// Delay is only evaluated for sends the channel did not already drop.
func (n *Network) SetLinkDelay(f func(from, to ids.ProcessID, seq uint64) int) {
	n.linkDelay = f
}

// Send enqueues a message for delivery next round. Loss is decided at
// send time: the channel may drop it (1-PSucc, from the sender's loss
// stream), the target may be crashed, the link may be severed, or the
// target may appear failed to the sender under the weakly consistent
// model. OnSend observes the attempt either way.
//
// During a round phase, Send buffers into the sender's shard's outbox
// and the caller must pass the handling node's own id as from. Between
// rounds, Send resolves immediately into the queue.
func (n *Network) Send(from, to ids.ProcessID, msg any) {
	c := n.peerFor(from)
	c.seq++
	dropped := false
	switch {
	case n.Down(to):
		dropped = true
	case n.pairDown != nil && n.pairDown(from, to):
		dropped = true
	case n.linkDown != nil && n.linkDown(from, to):
		dropped = true
	case n.PSucc < 1 && n.lossCoin(c) >= n.PSucc:
		dropped = true
	}
	delay := 0
	if !dropped && n.linkDelay != nil {
		if delay = n.linkDelay(from, to, c.seq); delay < 0 {
			delay = 0
		}
	}
	if n.stepping {
		sh := &n.scratch.shards[shardOf(c.index, n.block)]
		sh.out = append(sh.out, pendingSend{to: to, seq: c.seq, msg: msg, rank: c.rank, delay: int32(delay), dropped: dropped})
		return
	}
	env := Envelope{From: from, To: to, Seq: c.seq, Msg: msg}
	if n.OnSend != nil {
		n.OnSend(env, dropped)
	}
	if dropped {
		return
	}
	if delay > 0 {
		n.holdDelayed(env, delay)
		return
	}
	n.queue = append(n.queue, env)
}

// lossCoin draws the sender's next channel-loss coin from its own
// stream, created on the first draw: a run builds loss streams only
// for the ids that send over a lossy channel.
func (n *Network) lossCoin(c *peer) float64 {
	if c.loss == nil {
		c.loss = xrand.NewStream(n.seed, "loss:"+string(c.id))
	}
	return c.loss.Float64()
}

// holdDelayed parks a send in the delayed bucket for its delivery
// round. Only called serially (between rounds, or at the merge).
func (n *Network) holdDelayed(env Envelope, delay int) {
	if n.delayed == nil {
		n.delayed = make(map[int][]Envelope)
	}
	due := n.round + 1 + delay
	n.delayed[due] = append(n.delayed[due], env)
}

// Pending returns the number of messages in flight: next round's queue
// plus any delayed sends still held by straggler links.
func (n *Network) Pending() int {
	p := len(n.queue)
	for _, bucket := range n.delayed {
		p += len(bucket)
	}
	return p
}

// workers returns the effective shard count for the current topology.
func (n *Network) workers() int {
	p := n.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(n.nodes) {
		p = len(n.nodes)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// shardOf maps a node to its shard by insertion index, in contiguous
// blocks of the given size: shard s owns indexes [s·block, (s+1)·block).
// Contiguous slabs (rather than the round-robin index%p) keep each
// worker's nodes — and everything they point to, allocated in insertion
// order — adjacent in memory, so a shard's round walks a compact slab
// instead of striding the whole heap. Results are invariant either way:
// every node is owned by exactly one shard, and the serial merge
// canonicalizes outbox order.
func shardOf(index, block int) int { return index / block }

// shardBlock returns the slab size for p shards over n nodes (ceiling
// division; the last shard may own a short slab).
func shardBlock(n, p int) int { return (n + p - 1) / p }

// compareOutbox orders one sender's buffered sends by (To, Seq) — the
// canonical order with From fixed. Seq never repeats within a sender,
// so the order is total (no stability requirement on the sort).
func compareOutbox(a, b *pendingSend) int {
	if c := strings.Compare(string(a.to), string(b.to)); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// sortOut fills order with the shard's sends in canonical (From, To,
// Seq) order: a counting sort by sender rank, stable, so each sender's
// sends stay contiguous and in Seq order, then a (To, Seq) sort of
// each sender's run. Linear in the sends plus the sender count; the
// per-sender sorts are as small as the fan-outs, and only 4-byte
// indexes move.
func (sh *shard) sortOut(senders int) {
	out := sh.out
	if len(out) == 0 {
		sh.order = sh.order[:0]
		return
	}
	if cap(sh.count) < senders+1 {
		sh.count = make([]int, senders+1)
	}
	count := sh.count[:senders+1]
	clear(count)
	for i := range out {
		count[out[i].rank+1]++
	}
	for r := 1; r < len(count); r++ {
		count[r] += count[r-1]
	}
	order := slices.Grow(sh.order[:0], len(out))[:len(out)]
	for i := range out {
		r := out[i].rank
		order[count[r]] = int32(i)
		count[r]++
	}
	byToSeq := func(a, b int32) int { return compareOutbox(&out[a], &out[b]) }
	for lo := 0; lo < len(order); {
		hi, r := lo+1, out[order[lo]].rank
		for hi < len(order) && out[order[hi]].rank == r {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(order[lo:hi], byToSeq)
		}
		lo = hi
	}
	sh.order = order
}

// Step runs one synchronous round: deliver everything queued (sends
// performed during delivery land in the following round), then tick
// nodes if TickNodes is set. The delivery/tick phase runs across
// Workers shards concurrently, each buffering its nodes' sends in one
// outbox and sorting it into canonical order while still parallel; the
// serial tail merges the shards' outboxes by sender rank — reproducing
// the exact canonical (From, To, Seq) order of a global sort without
// one. All round buffers (shard inboxes and outboxes, the queue) are
// recycled, so steady-state rounds allocate nothing. It returns the
// number of messages delivered.
func (n *Network) Step() int {
	n.round++
	p := n.workers()
	if n.sendersDirty {
		slices.SortFunc(n.senders, func(a, b *peer) int {
			return strings.Compare(string(a.id), string(b.id))
		})
		for r, c := range n.senders {
			c.rank = int32(r)
		}
		n.sendersDirty = false
	}

	sc := n.scratch
	if sc == nil {
		// Sends made while the network was quiescent move into the
		// pooled queue buffer.
		sc = scratchPool.Get().(*roundScratch)
		sc.queue = append(sc.queue[:0], n.queue...)
		n.queue, n.scratch = sc.queue, sc
	}

	// Double-buffer the delivery queue: this round's batch becomes the
	// spare that next round's queue is rebuilt into.
	batch := n.queue
	n.queue = sc.spare[:0]

	// Straggler sends whose delay expires this round deliver ahead of
	// the regular queue — they are the older sends. The merged slice
	// replaces batch (and hence the recycled spare); the displaced
	// buffer is simply dropped to the GC, which rounds with stragglers
	// are rare enough to afford.
	if n.delayed != nil {
		if due := n.delayed[n.round]; len(due) > 0 {
			merged := make([]Envelope, 0, len(due)+len(batch))
			merged = append(merged, due...)
			merged = append(merged, batch...)
			batch = merged
		}
		delete(n.delayed, n.round)
	}

	if cap(sc.shards) < p {
		sc.shards = make([]shard, p)
	}
	shards := sc.shards[:p]
	sc.shards = shards
	block := shardBlock(len(n.nodes), p)

	// With several shards, partition the batch by destination shard,
	// preserving canonical order within each shard, into the recycled
	// inboxes. A single shard delivers the batch as it is.
	if p > 1 {
		for _, env := range batch {
			to := n.node(env.To)
			if to == nil {
				continue // unknown target: silently dropped
			}
			sh := &shards[shardOf(to.index, block)]
			sh.in = append(sh.in, env)
		}
	}

	n.stepping, n.block = true, block
	runShard := func(s int) {
		sh := &shards[s]
		in := sh.in
		if p == 1 {
			in = batch
		}
		sh.delivered = 0
		for _, env := range in {
			to := n.node(env.To)
			if to == nil || to.down {
				continue // unknown targets are silently dropped
			}
			to.node.HandleMessage(env.Msg)
			sh.delivered++
		}
		if n.TickNodes {
			// With ceiling-sized slabs a trailing shard may own none.
			lo := min(s*block, len(n.nodes))
			hi := min(lo+block, len(n.nodes))
			for _, pr := range n.nodes[lo:hi] {
				if !pr.down {
					pr.node.Tick()
				}
			}
		}
		// Sort this shard's outbox while the other shards are still
		// busy: each sender belongs to exactly one shard, so the serial
		// merge below only interleaves whole per-sender runs.
		sh.sortOut(len(n.senders))
	}
	if p == 1 {
		runShard(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(p)
		for s := 0; s < p; s++ {
			go func(s int) {
				defer wg.Done()
				runShard(s)
			}(s)
		}
		wg.Wait()
	}
	n.stepping = false

	// Release this round's delivered envelopes: recycled capacity must
	// not pin message graphs.
	clear(batch)
	sc.spare = batch[:0]
	total, sends := 0, 0
	for s := range shards {
		sh := &shards[s]
		clear(sh.in)
		sh.in = sh.in[:0]
		total += sh.delivered
		sends += len(sh.out)
	}

	// Serial merge: senders in ascending rank (= From) order, each
	// sender's run already (To, Seq)-sorted in its shard's order.
	// Observers fire in canonical order; the queue, sized once for the
	// round, is appended in place.
	n.queue = slices.Grow(n.queue, sends)
	if cap(sc.heads) < p {
		sc.heads = make([]int, p)
	}
	heads := sc.heads[:p]
	clear(heads)
	for {
		best, rank := -1, int32(0)
		for s := range shards {
			sh := &shards[s]
			if h := heads[s]; h < len(sh.order) && (best < 0 || sh.out[sh.order[h]].rank < rank) {
				best, rank = s, sh.out[sh.order[h]].rank
			}
		}
		if best < 0 {
			break
		}
		sh := &shards[best]
		from := n.senders[rank].id
		i := heads[best]
		for ; i < len(sh.order) && sh.out[sh.order[i]].rank == rank; i++ {
			ps := &sh.out[sh.order[i]]
			env := Envelope{From: from, To: ps.to, Seq: ps.seq, Msg: ps.msg}
			if n.OnSend != nil {
				n.OnSend(env, ps.dropped)
			}
			if ps.dropped {
				continue
			}
			if ps.delay > 0 {
				n.holdDelayed(env, int(ps.delay))
				continue
			}
			n.queue = append(n.queue, env)
		}
		heads[best] = i
	}
	for s := range shards {
		clear(shards[s].out)
		shards[s].out = shards[s].out[:0]
	}

	if n.OnRoundEnd != nil {
		n.OnRoundEnd(n.round)
	}
	if n.Pending() == 0 {
		sc.queue, n.queue, n.scratch = n.queue[:0], nil, nil
		scratchPool.Put(sc)
	}
	return total
}

// Run steps until the network quiesces (no pending messages, delayed
// ones included) or maxRounds elapse, returning the number of rounds
// executed. With TickNodes set the network may never quiesce (periodic
// tasks keep sending); the bound then decides.
func (n *Network) Run(maxRounds int) int {
	ran := 0
	for ran < maxRounds && n.Pending() > 0 {
		n.Step()
		ran++
	}
	return ran
}

// PairDownCoin builds a deterministic per-(observer,target) failure
// appearance: each ordered pair independently appears failed with
// probability pFail, fixed for the run. The coin is a pure hash of
// (seed, observer, target) — stateless, and therefore safe to call
// concurrently from shard goroutines and independent of evaluation
// order.
func PairDownCoin(seed int64, pFail float64) func(observer, target ids.ProcessID) bool {
	if pFail <= 0 {
		return func(ids.ProcessID, ids.ProcessID) bool { return false }
	}
	if pFail >= 1 {
		return func(ids.ProcessID, ids.ProcessID) bool { return true }
	}
	return func(observer, target ids.ProcessID) bool {
		return xrand.HashCoin(seed, string(observer)+"\x00"+string(target), pFail)
	}
}

// StragglerDelay builds a deterministic link-delay function for
// SetLinkDelay: each send is independently a straggler with probability
// p, in which case it spends between 1 and maxExtra extra rounds in
// flight. Both the coin and the delay magnitude are pure hashes of
// (seed, from, to, seq) — stateless, safe from shard goroutines, and
// independent of evaluation order, so figure runs stay byte-identical
// for every worker count.
func StragglerDelay(seed int64, p float64, maxExtra int) func(from, to ids.ProcessID, seq uint64) int {
	if p <= 0 || maxExtra < 1 {
		return func(ids.ProcessID, ids.ProcessID, uint64) int { return 0 }
	}
	return func(from, to ids.ProcessID, seq uint64) int {
		label := string(from) + "\x00" + string(to) + "\x00" + strconv.FormatUint(seq, 16)
		if !xrand.HashCoin(seed, label, p) {
			return 0
		}
		return 1 + int(xrand.HashUniform(seed+1, label)*float64(maxExtra))
	}
}
