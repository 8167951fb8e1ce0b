package core

// Graceful departure. The paper's model lets processes "join or leave
// the system" (§IV-B); crashes are handled by the timeout machinery,
// but a cooperative leave can clean tables immediately instead of
// waiting out suspicion ages. The substrate of [10] (lpbcast) gossips
// unsubscriptions the same way; here a leaving process notifies the
// group mates it knows directly, and each receiver purges the leaver
// from every table (topic, supertopic, extras) on receipt.

// MsgLeave announces a cooperative departure. Declared alongside the
// other message types in message.go's enum space; the value continues
// that sequence.
const MsgLeave MsgType = MsgPong + 1

func init() {
	// Extend the name table (kept here so everything about leaving
	// lives in one file).
	msgTypeNames[MsgLeave] = "LEAVE"
}

// Leave announces departure to every known group mate and supergroup
// contact, then stops the process. The identical announcement goes to
// every target of a destination group, so it is batched through
// sendSegments: batch-capable envs serialize it once per group, and
// every frame carries the Dest demux of the group the receiver is in.
// Idempotent: a stopped process leaves silently.
func (p *Process) Leave() {
	if p.stopped {
		return
	}
	f := getFanout()
	targets, segs := f.targets, f.segs
	targets = p.topicTable.AppendIDs(targets)
	segs = appendSeg(segs, p.topic, len(targets))
	targets = p.superTable.AppendIDs(targets)
	segs = appendSeg(segs, p.superKnown, len(targets))
	for _, sup := range p.extraOrder {
		targets = p.extras[sup].AppendIDs(targets)
		segs = appendSeg(segs, sup, len(targets))
	}
	f.targets, f.segs = targets, segs
	p.sendSegments(targets, segs, &Message{
		Type:      MsgLeave,
		From:      p.id,
		FromTopic: p.topic,
	})
	putFanout(f)
	p.Stop()
}

// onLeave purges the departing process from all tables.
func (p *Process) onLeave(m *Message) {
	p.topicTable.Remove(m.From)
	p.superTable.Remove(m.From)
	delete(p.superSeen, m.From)
	for sup, v := range p.extras {
		if v.Remove(m.From) {
			delete(p.extraSeen[sup], m.From)
		}
	}
}
