package core

import (
	"errors"

	"damulticast/internal/ids"
	"damulticast/internal/xrand"
)

// ErrStopped is returned by Publish on a stopped process.
var ErrStopped = errors.New("core: process is stopped")

// Publish creates an event of this process's topic and disseminates it
// (paper Fig. 7, invoked by the publishing process itself).
func (p *Process) Publish(payload []byte) (*Event, error) {
	if p.stopped {
		return nil, ErrStopped
	}
	p.nextSeq++
	ev := &Event{
		ID:      ids.EventID{Origin: p.id, Seq: p.nextSeq},
		Topic:   p.topic,
		Payload: payload,
	}
	// The publisher has trivially "seen" its own event; it must not
	// re-disseminate it if gossip echoes it back.
	p.seen.Add(ev.ID)
	p.rememberEvent(ev)
	p.disseminate(ev)
	return ev, nil
}

// onEvent is the RECEIVE handler of Fig. 5: first-time events are
// forwarded (DISSEMINATE) and delivered to the application; duplicates
// are dropped silently.
func (p *Process) onEvent(m *Message) {
	if m.Event != nil {
		p.receiveEvent(m.Event)
	}
}

// receiveEvent is the shared first-time reception path for gossiped
// and recovered events: record it in the seen window and the recovery
// store, forward it (DISSEMINATE) and deliver it to the application.
// It reports whether the event was new.
func (p *Process) receiveEvent(ev *Event) bool {
	if !p.seen.Add(ev.ID) {
		return false // already received
	}
	p.rememberEvent(ev)
	p.disseminate(ev)
	p.env.Deliver(ev.Clone())
	return true
}

// disseminate implements DISSEMINATE (Fig. 7):
//
//  1. with probability pSel = g/S the process elects itself as a link
//     and sends the event to each entry of its supertopic table with
//     probability pA = a/z (lines 3-7);
//  2. the event is gossiped to ln(S)+c distinct random members of the
//     topic table (lines 8-14).
//
// Root-group processes have an empty supertopic table, so step 1 is a
// no-op for them ("the processes receiving the event only gossip it in
// their group").
//
// All elected targets are collected first (in the exact order the
// per-target sends used to happen, so random draws and simulator loss
// coins are consumed identically) and the event then goes out as ONE
// message per destination group via sendSegments: batch-capable envs
// serialize it a single time per group, and every frame carries the
// Dest demux of the group it is for (supergroup targets live in a
// different group than the intra-group gossip targets). Targets are
// collected in pooled scratch (see fanout), so a fan-out allocates
// only its message.
func (p *Process) disseminate(ev *Event) {
	r := p.env.Rand()
	f := getFanout()
	targets, segs := f.targets, f.segs

	// (1) Upward dissemination toward the supergroup.
	if p.superTable.Len() > 0 && xrand.Bernoulli(r, p.pSel()) {
		pa := p.pA()
		base := len(targets)
		targets = p.superTable.AppendIDs(targets)
		kept := base
		for _, target := range targets[base:] {
			if xrand.Bernoulli(r, pa) && target != p.id {
				targets[kept] = target
				kept++
			}
		}
		targets = targets[:kept]
		segs = appendSeg(segs, p.superKnown, len(targets))
	}
	// (1b) Same, per declared extra supertopic (§VIII extension).
	targets, segs = p.appendExtraTargets(r, targets, segs)

	// (2) Gossip within the group: ln(S)+c distinct targets, never
	// repeating a target for this event (the paper's Ω set). The view
	// never holds p itself.
	targets = p.topicTable.AppendSample(targets, r, p.fanout())
	segs = appendSeg(segs, p.topic, len(targets))

	f.targets, f.segs = targets, segs
	p.sendSegments(targets, segs, &Message{
		Type:      MsgEvent,
		From:      p.id,
		FromTopic: p.topic,
		Event:     ev,
	})
	putFanout(f)
}
