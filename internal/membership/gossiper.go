package membership

import (
	"math/rand"

	"damulticast/internal/ids"
)

// Digest is the payload of one membership shuffle: a sample of the
// sender's view (with ages) plus the sender itself at age 0. Receivers
// merge the digest; the initiator merges the reply. Shuffles keep each
// view a fresh, near-uniform sample of the live group (cf. [10]).
type Digest struct {
	From    ids.ProcessID
	Entries []Entry
}

// Gossiper drives shuffle exchanges for one view. It is a pure state
// machine: methods build or consume digests; the owner sends/receives
// them over whatever channel it has.
type Gossiper struct {
	self ids.ProcessID
	view *View
	// Fanout is how many view entries each digest carries. 0 means
	// "half the view", the classic shuffle size.
	Fanout int
}

// NewGossiper wraps view for shuffling on behalf of self.
func NewGossiper(self ids.ProcessID, view *View) *Gossiper {
	return &Gossiper{self: self, view: view}
}

// View returns the underlying view.
func (g *Gossiper) View() *View { return g.view }

func (g *Gossiper) digestSize() int {
	if g.Fanout > 0 {
		return g.Fanout
	}
	n := g.view.Len() / 2
	if n < 1 {
		n = 1
	}
	return n
}

// InitiateShuffle picks a random partner and builds the digest to send
// it. Returns false if the view is empty.
func (g *Gossiper) InitiateShuffle(r *rand.Rand) (partner ids.ProcessID, d Digest, ok bool) {
	partner, ok = g.view.Pick(r)
	if !ok {
		return "", Digest{}, false
	}
	return partner, g.BuildDigest(r), true
}

// BuildDigest samples the view and prepends the sender at age 0.
func (g *Gossiper) BuildDigest(r *rand.Rand) Digest {
	sample := g.view.Sample(r, g.digestSize())
	entries := make([]Entry, 0, len(sample)+1)
	entries = append(entries, Entry{ID: g.self, Age: 0})
	for _, id := range sample {
		entries = append(entries, g.view.entries[g.view.indexOf(id)])
	}
	return Digest{From: g.self, Entries: entries}
}

// OnDigest merges a received digest and returns the reply digest the
// receiver should send back (pull half of push-pull).
func (g *Gossiper) OnDigest(r *rand.Rand, d Digest) Digest {
	reply := g.BuildDigest(r)
	g.view.Merge(d.Entries)
	g.view.Add(d.From)
	return reply
}

// OnReply merges the reply to a shuffle this gossiper initiated.
func (g *Gossiper) OnReply(d Digest) {
	g.view.Merge(d.Entries)
	g.view.Add(d.From)
}

// Tick performs one maintenance step: ages all entries and evicts those
// older than maxAge, returning the suspected-failed ids.
func (g *Gossiper) Tick(maxAge int) []ids.ProcessID {
	g.view.AgeAll()
	if maxAge <= 0 {
		return nil
	}
	return g.view.EvictOlderThan(maxAge)
}
