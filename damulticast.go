// Package damulticast is a Go implementation of Data-Aware Multicast
// (daMulticast) — the decentralized, gossip-based multicast protocol
// for hierarchical topic-based publish/subscribe of Baehni, Eugster
// and Guerraoui (EPFL TR IC/2003/73, DSN 2004).
//
// Subscribers are interested in topics of a dotted hierarchy (e.g.
// ".news.sports.football") and transitively receive events published
// on their topic or any of its subtopics. Members of a topic group
// self-organize by gossip, link each group to its supergroup with a
// constant-size supertopic table, gossip events within groups (fanout
// ln(S)+c) and push them up the hierarchy probabilistically. No
// process ever receives an event of a topic it is not interested in,
// no central broker exists, and memory per subscription is bounded by
// ln(S) + c + z regardless of the hierarchy's size.
//
// The public API is the Hub: one transport endpoint hosting any
// number of topic subscriptions over a single socket (the wire
// protocol demultiplexes groups per frame). A minimal
// publisher/subscriber pair over the in-memory transport:
//
//	net := damulticast.NewMemNetwork()
//	sub, _ := damulticast.NewHub(net.NewTransport("sub"))
//	news, _ := sub.Join(ctx, ".news")
//	pub, _ := damulticast.NewHub(net.NewTransport("pub"))
//	sports, _ := pub.Join(ctx, ".news.sports",
//	    damulticast.WithSuperContacts(".news", "sub"))
//	sports.Publish(ctx, []byte("goal!"))
//	ev := <-news.Events() // the event climbs to the supergroup
//
// Node is the deprecated single-topic predecessor of Hub, kept as a
// thin adapter (one hub, one subscription) so existing code compiles.
//
// The same protocol engine also powers the round-based simulator that
// regenerates the paper's figures; see internal/sim and cmd/damcsim.
package damulticast

import (
	"context"
	"errors"
	"time"

	"damulticast/internal/core"
)

// Params are the protocol constants; see the package documentation and
// the paper's §V. The zero value is invalid; start from DefaultParams.
type Params = core.Params

// DefaultParams returns the paper's simulation constants (§VII-A):
// b=3, c=5, g=5, a=1, z=3.
func DefaultParams() Params { return core.DefaultParams() }

// Event is a delivered application event.
type Event struct {
	// ID is the globally unique event identifier ("origin#seq").
	ID string
	// Topic is the topic the event was published on (always included
	// by the receiving subscription's topic).
	Topic string
	// Payload is the application payload.
	Payload []byte
}

// Errors. All configuration and lifecycle failures are typed sentinels
// (possibly wrapped with detail); match with errors.Is.
var (
	// ErrNoTransport rejects construction without a Transport.
	ErrNoTransport = errors.New("damulticast: config needs a Transport")
	// ErrAlreadyStarted reports a second Start on an already-running
	// hub or node.
	ErrAlreadyStarted = errors.New("damulticast: already started")
	// ErrNotRunning reports an operation on a hub or node that is not
	// (or no longer) running.
	ErrNotRunning = errors.New("damulticast: node not running")
	// ErrInvalidTopic rejects a malformed topic.
	ErrInvalidTopic = errors.New("damulticast: invalid topic")
	// ErrInvalidSuperTopic rejects a supertopic that is malformed or
	// does not strictly include the subscribed topic.
	ErrInvalidSuperTopic = errors.New("damulticast: invalid super topic")
	// ErrDuplicateTopic rejects joining a topic the hub is already
	// subscribed to.
	ErrDuplicateTopic = errors.New("damulticast: already subscribed to topic")
)

// Config configures a Node.
//
// Deprecated: new code should use NewHub with HubOption/JoinOption
// functional options; Config remains for the Node adapter.
type Config struct {
	// ID is the node's process identifier. It must equal the address
	// other nodes reach it at. Defaults to Transport.Addr().
	ID string
	// Topic is the single topic this node is interested in (§III-A).
	Topic string
	// Transport carries the node's messages.
	Transport Transport
	// Params are the protocol constants; zero value selects
	// DefaultParams.
	Params Params
	// Seeds are bootstrap overlay contacts (the paper's
	// neighborhood(p)) used by FIND_SUPER_CONTACT. Optional when
	// SuperContacts is set or Topic is the root.
	Seeds []string
	// GroupContacts are known members of this node's own topic group.
	GroupContacts []string
	// SuperContacts are known members of the supergroup; when set
	// together with SuperTopic the bootstrap search is skipped
	// (Fig. 4 lines 5-8).
	SuperContacts []string
	// SuperTopic is the topic SuperContacts are interested in; it
	// must strictly include Topic.
	SuperTopic string
	// TickInterval is the period of the protocol's maintenance tick
	// (membership shuffles, link maintenance). Default 500ms.
	TickInterval time.Duration
	// EventBuffer is the capacity of the delivery channel; when the
	// application falls behind, further deliveries are dropped
	// (best-effort, like the underlying channels). Default 256.
	EventBuffer int
	// Seed seeds the node's random source; 0 derives one from the id.
	Seed int64
}

// Node is a single-topic daMulticast process: a Hub carrying exactly
// one Subscription, behind the original one-node-one-topic API. All
// methods are safe for concurrent use.
//
// Deprecated: use NewHub and Hub.Join — one hub multiplexes any number
// of topics over one transport, and its Publish/Leave take contexts.
// Node remains a supported adapter: NewNode(cfg) is NewHub + one Join.
type Node struct {
	hub *Hub
	sub *Subscription

	// inbox aliases the hub's raw-frame queue (tests inspect its
	// capacity and overflow behavior).
	inbox chan []byte
}

// NewNode validates the configuration and builds a stopped node.
//
// Deprecated: use NewHub and Hub.Join; the README's "Migrating from
// the v1 Node API" table maps every Node call to its Hub equivalent.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, ErrNoTransport
	}
	if cfg.ID == "" {
		cfg.ID = cfg.Transport.Addr()
	}
	// Zero-value params/tick/buffer fall through to newHub's defaults.
	// The seed keeps the v1 derivation (from the id alone, not id +
	// topic) so existing deployments reproduce their streams.
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(len(cfg.ID))*7919 + hashString(cfg.ID)
	}
	h, err := newHub(cfg.Transport,
		WithID(cfg.ID),
		WithParams(cfg.Params),
		WithTickInterval(cfg.TickInterval),
		WithEventBuffer(cfg.EventBuffer),
	)
	if err != nil {
		return nil, err
	}
	sub, err := h.prepare(cfg.Topic, joinConfig{
		seed:          seed,
		seeds:         cfg.Seeds,
		groupContacts: cfg.GroupContacts,
		superTopic:    cfg.SuperTopic,
		superContacts: cfg.SuperContacts,
	})
	if err != nil {
		return nil, err
	}
	return &Node{hub: h, sub: sub, inbox: h.inbox}, nil
}

// hashString is a tiny FNV-style hash for default seeding.
func hashString(s string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// ID returns the node's process id.
func (n *Node) ID() string { return n.hub.ID() }

// Topic returns the node's topic.
func (n *Node) Topic() string { return n.sub.Topic() }

// Events returns the delivery channel. It is closed when the node
// stops.
func (n *Node) Events() <-chan Event { return n.sub.Events() }

// DroppedDeliveries reports how many events were discarded because the
// Events channel was full.
func (n *Node) DroppedDeliveries() int64 { return n.sub.DroppedDeliveries() }

// DroppedFrames reports how many inbound frames were discarded before
// reaching the protocol: malformed frames the decoder rejected plus
// decoded messages dropped because the inbox overflowed. Both are
// best-effort losses by design, but counting them makes live-node loss
// diagnosable instead of silent.
func (n *Node) DroppedFrames() int64 {
	return n.hub.malformedFrames.Load() + n.hub.overflowFrames.Load()
}

// MalformedFrames reports the decoder-rejected share of DroppedFrames.
func (n *Node) MalformedFrames() int64 { return n.hub.malformedFrames.Load() }

// RecoveryStats returns the anti-entropy recovery counters (all zero
// unless Params.RecoverPeriod enables the recovery subsystem). Safe
// for concurrent use.
func (n *Node) RecoveryStats() core.RecoveryStats { return n.sub.RecoveryStats() }

// NodeStats is a point-in-time snapshot of the node's loss and
// recovery counters.
type NodeStats struct {
	// DroppedDeliveries counts events discarded because the application
	// fell behind the Events channel.
	DroppedDeliveries int64
	// MalformedFrames counts inbound frames the wire decoder rejected.
	MalformedFrames int64
	// OverflowFrames counts frames dropped on receive-queue overflow.
	OverflowFrames int64
	// Recovery holds the anti-entropy recovery counters.
	Recovery core.RecoveryStats
}

// Stats snapshots every node counter in one call.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		DroppedDeliveries: n.sub.DroppedDeliveries(),
		MalformedFrames:   n.hub.malformedFrames.Load(),
		OverflowFrames:    n.hub.overflowFrames.Load(),
		Recovery:          n.sub.RecoveryStats(),
	}
}

// Start launches the node's protocol loop. The node stops when ctx is
// cancelled or Stop is called.
func (n *Node) Start(ctx context.Context) error {
	if err := n.hub.start(ctx); err != nil {
		return err
	}
	return n.hub.register(ctx, n.sub)
}

// Stop terminates the node and closes its transport and delivery
// channel. Safe to call multiple times.
func (n *Node) Stop() error { return n.hub.Stop() }

// Publish disseminates an event of the node's topic and returns its
// id. Blocks until the protocol loop accepts the publication or the
// node stops. (Subscription.Publish is the context-aware form.)
func (n *Node) Publish(payload []byte) (string, error) {
	return n.sub.Publish(context.Background(), payload)
}

// Leave announces a graceful departure to every known peer (they purge
// this node from their tables immediately instead of waiting out
// failure suspicion), then stops the node. After Leave the node is
// stopped; Stop may still be called to release the transport.
func (n *Node) Leave() error {
	if err := n.sub.Leave(context.Background()); err != nil {
		return err
	}
	return n.hub.Stop()
}

// onRaw is the transport receive callback (tests feed it directly).
func (n *Node) onRaw(payload []byte) { n.hub.onRaw(payload) }
