package core

import (
	"fmt"
	"testing"

	"damulticast/internal/ids"
	"damulticast/internal/membership"
	"damulticast/internal/topic"
)

func maintainParams() Params {
	p := testParams()
	p.MaintainPeriod = 1
	p.PingTimeout = 1
	p.G = 1 << 20 // pSel = 1: deterministic maintenance
	return p
}

func TestShufflePiggybacksSuperTable(t *testing.T) {
	env := newFakeEnv(1)
	params := testParams()
	params.ShufflePeriod = 1
	p := MustNewProcess("p0", ".a.b", params, env)
	p.SeedTopicTable([]ids.ProcessID{"m1", "m2"})
	p.SeedSuperTable(".a", []ids.ProcessID{"s1", "s2"})

	p.Tick()
	shuffles := env.sentOfType(MsgShuffle)
	if len(shuffles) != 1 {
		t.Fatalf("shuffles = %d", len(shuffles))
	}
	m := shuffles[0].msg
	if m.SuperTopic != ".a" {
		t.Errorf("SuperTopic = %q", m.SuperTopic)
	}
	if len(m.SuperEntries) != 2 {
		t.Errorf("SuperEntries = %v", m.SuperEntries)
	}
	if len(m.Digest.Entries) == 0 || m.Digest.From != "p0" {
		t.Errorf("bad digest: %+v", m.Digest)
	}
}

func TestOnShuffleRepliesAndMergesSuperInfo(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a.b", testParams(), env)
	p.SeedTopicTable([]ids.ProcessID{"m1"})

	p.HandleMessage(&Message{
		Type:      MsgShuffle,
		From:      "m2",
		FromTopic: ".a.b",
		Digest: membership.Digest{
			From:    "m2",
			Entries: []membership.Entry{{ID: "m2", Age: 0}, {ID: "m3", Age: 1}},
		},
		SuperTopic:   ".a",
		SuperEntries: []membership.Entry{{ID: "s9", Age: 0}},
	})
	replies := env.sentOfType(MsgShuffleReply)
	if len(replies) != 1 || replies[0].to != "m2" {
		t.Fatalf("replies = %v", replies)
	}
	// Learned group members and super contacts.
	tt := p.TopicTable()
	found := map[ids.ProcessID]bool{}
	for _, id := range tt {
		found[id] = true
	}
	if !found["m2"] || !found["m3"] {
		t.Errorf("topic table after shuffle = %v", tt)
	}
	if p.SuperKnownTopic() != ".a" {
		t.Errorf("super not merged: %q", p.SuperKnownTopic())
	}
}

func TestOnShuffleWrongGroupIgnored(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a.b", testParams(), env)
	p.HandleMessage(&Message{
		Type:      MsgShuffle,
		From:      "alien",
		FromTopic: ".zzz",
		Digest:    membership.Digest{From: "alien", Entries: []membership.Entry{{ID: "alien"}}},
	})
	if len(env.sent) != 0 {
		t.Error("cross-group shuffle answered")
	}
	if len(p.TopicTable()) != 0 {
		t.Error("cross-group shuffle merged")
	}
	// Reply path too.
	p.HandleMessage(&Message{
		Type:      MsgShuffleReply,
		From:      "alien",
		FromTopic: ".zzz",
		Digest:    membership.Digest{From: "alien", Entries: []membership.Entry{{ID: "alien"}}},
	})
	if len(p.TopicTable()) != 0 {
		t.Error("cross-group reply merged")
	}
}

func TestPingPong(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a.b", testParams(), env)
	p.HandleMessage(&Message{Type: MsgPing, From: "q"})
	pongs := env.sentOfType(MsgPong)
	if len(pongs) != 1 || pongs[0].to != "q" {
		t.Fatalf("pongs = %v", pongs)
	}
}

func TestKeepTableUpdatedRestartsBootstrapWhenEmpty(t *testing.T) {
	env := newFakeEnv(1)
	env.neighbors = []ids.ProcessID{"n1"}
	params := maintainParams()
	p := MustNewProcess("p0", ".a.b", params, env)
	p.Tick() // maintenance fires: empty super table -> FIND_SUPER_CONTACT
	if !p.FindSuperRunning() {
		t.Error("bootstrap not restarted on empty super table")
	}
	if len(env.sentOfType(MsgReqContact)) == 0 {
		t.Error("no REQCONTACT flood")
	}
}

func TestKeepTableUpdatedRootNoop(t *testing.T) {
	env := newFakeEnv(1)
	env.neighbors = []ids.ProcessID{"n1"}
	p := MustNewProcess("p0", topic.Root, maintainParams(), env)
	for i := 0; i < 5; i++ {
		p.Tick()
	}
	if len(env.sent) != 0 {
		t.Error("root process ran link maintenance")
	}
}

func TestCheckEvictsDeadAndRequestsFresh(t *testing.T) {
	env := newFakeEnv(1)
	params := maintainParams()
	params.Tau = 1
	p := MustNewProcess("p0", ".a.b", params, env)
	p.SeedSuperTable(".a", []ids.ProcessID{"s1", "s2", "s3"})

	// Tick 1: maintenance pings all three.
	p.Tick()
	pings := env.sentOfType(MsgPing)
	if len(pings) != 3 {
		t.Fatalf("pings = %d", len(pings))
	}
	// Only s1 answers.
	p.HandleMessage(&Message{Type: MsgPong, From: "s1", FromTopic: ".a"})
	env.reset()

	// Tick 2: timeout elapsed; CHECK = 1 <= τ: dead evicted, live
	// asked for fresh members.
	p.Tick()
	if got := p.SuperTable(); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("super table after CHECK = %v", got)
	}
	reqs := env.sentOfType(MsgNewProcessReq)
	if len(reqs) != 1 || reqs[0].to != "s1" {
		t.Fatalf("NEWPROCESS requests = %v", reqs)
	}

	// The live superprocess answers with fresh supergroup members.
	p.HandleMessage(&Message{
		Type:          MsgNewProcessAns,
		From:          "s1",
		FromTopic:     ".a",
		Contacts:      []ids.ProcessID{"s4", "s5"},
		ContactsTopic: ".a",
	})
	if got := len(p.SuperTable()); got != 3 {
		t.Errorf("super table after refresh = %d entries", got)
	}
}

func TestCheckAboveTauNoRequest(t *testing.T) {
	env := newFakeEnv(1)
	params := maintainParams()
	params.Tau = 0 // request only when zero live... (live<=0 impossible with responders)
	p := MustNewProcess("p0", ".a.b", params, env)
	p.SeedSuperTable(".a", []ids.ProcessID{"s1", "s2"})

	p.Tick() // pings
	p.HandleMessage(&Message{Type: MsgPong, From: "s1", FromTopic: ".a"})
	p.HandleMessage(&Message{Type: MsgPong, From: "s2", FromTopic: ".a"})
	env.reset()
	p.Tick() // resolve: 2 live > τ=0
	if len(env.sentOfType(MsgNewProcessReq)) != 0 {
		t.Error("NEWPROCESS requested although CHECK > τ")
	}
	if len(p.SuperTable()) != 2 {
		t.Errorf("live entries evicted: %v", p.SuperTable())
	}
}

func TestCheckAllDeadLeadsToBootstrap(t *testing.T) {
	env := newFakeEnv(1)
	env.neighbors = []ids.ProcessID{"n1"}
	params := maintainParams()
	p := MustNewProcess("p0", ".a.b", params, env)
	p.SeedSuperTable(".a", []ids.ProcessID{"s1"})

	p.Tick() // ping wave (s1 never answers)
	env.reset()
	p.Tick() // resolve: table empties
	if len(p.SuperTable()) != 0 {
		t.Fatalf("super table = %v", p.SuperTable())
	}
	p.Tick() // maintenance sees empty table -> bootstrap
	if !p.FindSuperRunning() {
		t.Error("bootstrap not restarted after total super-table death")
	}
}

func TestOnNewProcessReqServesGroupSample(t *testing.T) {
	env := newFakeEnv(1)
	params := testParams()
	params.Z = 3
	p := MustNewProcess("super0", ".a", params, env)
	p.SeedTopicTable([]ids.ProcessID{"super1", "super2", "super3", "super4"})
	p.HandleMessage(&Message{Type: MsgNewProcessReq, From: "child", FromTopic: ".a.b"})
	ans := env.sentOfType(MsgNewProcessAns)
	if len(ans) != 1 || ans[0].to != "child" {
		t.Fatalf("answers = %v", ans)
	}
	m := ans[0].msg
	if m.ContactsTopic != ".a" {
		t.Errorf("ContactsTopic = %s", m.ContactsTopic)
	}
	if len(m.Contacts) != 4 { // Z sample + self
		t.Errorf("contacts = %v", m.Contacts)
	}
	selfIncluded := false
	for _, c := range m.Contacts {
		if c == "super0" {
			selfIncluded = true
		}
	}
	if !selfIncluded {
		t.Error("answer does not include the superprocess itself")
	}
}

func TestSuperInfoSpreadsThroughGroupViaShuffle(t *testing.T) {
	// Only one group member knows the supergroup; shuffling must
	// spread that knowledge (the §V-A.2a optimization).
	k := newKernel(17)
	params := testParams()
	params.ShufflePeriod = 1
	params.MaxAge = 50

	var group []*Process
	for i := 0; i < 8; i++ {
		group = append(group, k.add(ids.ProcessID(fmt.Sprintf("g%d", i)), ".a.b", params))
	}
	var gids []ids.ProcessID
	for _, p := range group {
		gids = append(gids, p.ID())
	}
	for _, p := range group {
		p.SetTopicTableCap(8)
		p.SeedTopicTable(gids)
	}
	group[0].SeedSuperTable(".a", []ids.ProcessID{"s1", "s2"})

	for round := 0; round < 30; round++ {
		k.tickAll(1 << 16)
	}
	withSuper := 0
	for _, p := range group {
		if p.SuperKnownTopic() == ".a" && len(p.SuperTable()) > 0 {
			withSuper++
		}
	}
	if withSuper < len(group)/2 {
		t.Errorf("super info spread to only %d/%d members", withSuper, len(group))
	}
}

func TestTickPeriodicity(t *testing.T) {
	env := newFakeEnv(1)
	params := testParams()
	params.ShufflePeriod = 3
	p := MustNewProcess("p0", ".a", params, env)
	p.SeedTopicTable([]ids.ProcessID{"m1", "m2"})
	for i := 0; i < 9; i++ {
		p.Tick()
	}
	if got := len(env.sentOfType(MsgShuffle)); got != 3 {
		t.Errorf("shuffles in 9 ticks with period 3 = %d", got)
	}
}

// TestSuperTableBeforeAdoption drives every supertopic-table path at a
// process that has not adopted a supergroup yet, whose table and
// liveness marks are still unallocated: nothing may panic, and the
// first adoption must start from an empty table.
func TestSuperTableBeforeAdoption(t *testing.T) {
	env := newFakeEnv(1)
	p := MustNewProcess("p0", ".a.b", maintainParams(), env)
	p.SeedTopicTable([]ids.ProcessID{"m1"})

	p.HandleMessage(&Message{Type: MsgPong, From: "s1", FromTopic: ".a"})
	p.HandleMessage(&Message{Type: MsgLeave, From: "s1", FromTopic: ".a"})
	p.HandleMessage(&Message{Type: MsgNewProcessAns, From: "s1", FromTopic: ".a"}) // no ContactsTopic
	if len(p.SuperTable()) != 0 || p.SuperKnownTopic() != "" {
		t.Fatalf("table adopted from nothing: %v %q", p.SuperTable(), p.SuperKnownTopic())
	}
	p.Tick() // empty table: restarts FIND_SUPER_CONTACT

	p.HandleMessage(&Message{
		Type: MsgNewProcessAns, From: "s1", FromTopic: ".a",
		Contacts: []ids.ProcessID{"s1", "s2"}, ContactsTopic: ".a",
	})
	if got := p.SuperTable(); len(got) != 2 || p.SuperKnownTopic() != ".a" {
		t.Fatalf("after adoption: %v %q", got, p.SuperKnownTopic())
	}
	p.HandleMessage(&Message{Type: MsgPong, From: "s2", FromTopic: ".a"})
	if p.superSeen["s2"] != p.Now() {
		t.Errorf("pong not recorded: %v", p.superSeen)
	}
}
