package paxos

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/transport"
)

func transportAddr(s string) transport.Addr { return transport.Addr(s) }

// newTestNet creates the in-process network and registers its shutdown
// via t.Cleanup BEFORE startGroup registers the group's. Cleanups run
// LIFO, so the group's components close first and the network last —
// sends issued by lingering goroutines after that point get an error
// (ErrClosed/ErrNoRoute) instead of racing a half-torn-down harness.
func newTestNet(t *testing.T, seed int64) *transport.MemNetwork {
	t.Helper()
	net := transport.NewMemNetwork(seed)
	t.Cleanup(func() { _ = net.Close() })
	return net
}

// testGroup wires one Paxos group on an in-process network.
type testGroup struct {
	t         *testing.T
	net       *transport.MemNetwork
	group     uint32
	acceptors []*Acceptor
	coords    []*Coordinator
	learners  []*Learner
	candAddrs []transport.Addr
	closeOnce sync.Once
}

type groupOptions struct {
	candidates int
	learners   int
	acceptors  int
	skip       time.Duration
	takeover   time.Duration
	heartbeat  time.Duration
	optimistic bool
	flush      time.Duration
	batchMax   int
}

func startGroup(t *testing.T, net *transport.MemNetwork, opts groupOptions) *testGroup {
	t.Helper()
	if opts.candidates == 0 {
		opts.candidates = 1
	}
	if opts.learners == 0 {
		opts.learners = 1
	}
	if opts.acceptors == 0 {
		opts.acceptors = 3
	}
	g := &testGroup{t: t, net: net, group: 1}

	accAddrs := make([]transport.Addr, opts.acceptors)
	for i := range accAddrs {
		accAddrs[i] = transport.Addr(fmt.Sprintf("acc%d", i))
	}
	candAddrs := make([]transport.Addr, opts.candidates)
	for i := range candAddrs {
		candAddrs[i] = transport.Addr(fmt.Sprintf("coord%d", i))
	}
	g.candAddrs = candAddrs
	learnerAddrs := make([]transport.Addr, opts.learners)
	for i := range learnerAddrs {
		learnerAddrs[i] = transport.Addr(fmt.Sprintf("learner%d", i))
	}
	// Standby coordinators learn decisions too (for retransmission and
	// frontier tracking after fail-over).
	pushTargets := append(append([]transport.Addr{}, learnerAddrs...), candAddrs...)

	for i := range accAddrs {
		a, err := StartAcceptor(AcceptorConfig{
			GroupID: g.group, ID: uint32(i), Addr: accAddrs[i], Transport: net,
		})
		if err != nil {
			t.Fatalf("StartAcceptor: %v", err)
		}
		g.acceptors = append(g.acceptors, a)
	}
	for i := range candAddrs {
		c, err := StartCoordinator(CoordinatorConfig{
			GroupID:           g.group,
			CandidateIdx:      i,
			Candidates:        candAddrs,
			Acceptors:         accAddrs,
			Learners:          pushTargets,
			Transport:         net,
			SkipInterval:      opts.skip,
			TakeoverTimeout:   opts.takeover,
			HeartbeatInterval: opts.heartbeat,
			Optimistic:        opts.optimistic,
			FlushInterval:     opts.flush,
			BatchMaxBytes:     opts.batchMax,
		})
		if err != nil {
			t.Fatalf("StartCoordinator: %v", err)
		}
		g.coords = append(g.coords, c)
	}
	for i := range learnerAddrs {
		l, err := StartLearner(LearnerConfig{
			GroupID:      g.group,
			Addr:         learnerAddrs[i],
			Transport:    net,
			Coordinators: candAddrs,
			GapTimeout:   20 * time.Millisecond,
			Optimistic:   opts.optimistic,
		})
		if err != nil {
			t.Fatalf("StartLearner: %v", err)
		}
		g.learners = append(g.learners, l)
	}
	t.Cleanup(g.close)
	return g
}

func (g *testGroup) close() {
	g.closeOnce.Do(func() {
		for _, l := range g.learners {
			_ = l.Close()
		}
		for _, c := range g.coords {
			_ = c.Close()
		}
		for _, a := range g.acceptors {
			_ = a.Close()
		}
	})
}

func (g *testGroup) propose(value []byte) {
	g.proposeTo(0, value)
}

func (g *testGroup) proposeTo(candidate int, value []byte) {
	if err := g.tryPropose(candidate, value); err != nil {
		g.t.Fatalf("propose: %v", err)
	}
}

// tryPropose is the send path for goroutines that may outlive the test
// body (load generators): it reports the send error instead of calling
// t.Fatalf, which would panic the whole package run if it fired after
// the test completed ("Fail in goroutine after Test... has completed").
func (g *testGroup) tryPropose(candidate int, value []byte) error {
	return g.net.Send(g.candAddrs[candidate], NewProposeFrame(g.group, value))
}

// collectItems reads batches from a cursor until n items arrive. The
// collector goroutine never fails the test itself; on timeout it is
// left blocked in cur.Next and unblocks when the cleanup closes the
// learner. The mutex keeps the timeout path's progress report from
// racing the collector's appends.
func collectItems(t *testing.T, cur *Cursor, n int) [][]byte {
	t.Helper()
	var (
		mu    sync.Mutex
		items [][]byte
	)
	got := make(chan struct{})
	go func() {
		defer close(got)
		for {
			mu.Lock()
			have := len(items)
			mu.Unlock()
			if have >= n {
				return
			}
			b, _, ok := cur.Next()
			if !ok {
				return
			}
			if b.Skip {
				continue
			}
			mu.Lock()
			items = append(items, b.Items...)
			mu.Unlock()
		}
	}()
	select {
	case <-got:
		mu.Lock()
		defer mu.Unlock()
		return items
	case <-time.After(10 * time.Second):
		mu.Lock()
		have := len(items)
		mu.Unlock()
		t.Fatalf("timed out: collected %d of %d items", have, n)
		return nil
	}
}

func TestSingleValueDecided(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{})

	cur := g.learners[0].NewCursor()
	g.propose([]byte("hello"))
	items := collectItems(t, cur, 1)
	if string(items[0]) != "hello" {
		t.Fatalf("decided %q", items[0])
	}
}

func TestManyValuesOrderedAndComplete(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{})

	cur := g.learners[0].NewCursor()
	const n = 5000
	go func() {
		for i := 0; i < n; i++ {
			if g.tryPropose(0, []byte(fmt.Sprintf("v%05d", i))) != nil {
				return // network gone: the test is tearing down
			}
		}
	}()
	items := collectItems(t, cur, n)
	if len(items) != n {
		t.Fatalf("got %d items, want %d", len(items), n)
	}
	// Proposals from a single proposer over an ordered link must be
	// decided in proposal order.
	for i, item := range items {
		if want := fmt.Sprintf("v%05d", i); string(item) != want {
			t.Fatalf("item %d = %q, want %q", i, item, want)
		}
	}
}

func TestTwoLearnersSameSequence(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{learners: 2})

	cur0 := g.learners[0].NewCursor()
	cur1 := g.learners[1].NewCursor()
	const n = 1000
	go func() {
		for i := 0; i < n; i++ {
			if g.tryPropose(0, []byte(fmt.Sprintf("v%04d", i))) != nil {
				return // network gone: the test is tearing down
			}
		}
	}()
	items0 := collectItems(t, cur0, n)
	items1 := collectItems(t, cur1, n)
	if len(items0) != len(items1) {
		t.Fatalf("learner item counts differ: %d vs %d", len(items0), len(items1))
	}
	for i := range items0 {
		if string(items0[i]) != string(items1[i]) {
			t.Fatalf("learners diverge at %d: %q vs %q", i, items0[i], items1[i])
		}
	}
}

func TestToleratesOneAcceptorFailure(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{})

	cur := g.learners[0].NewCursor()
	g.propose([]byte("before"))
	collectItems(t, cur, 1)

	// Crash one of three acceptors: quorum 2 still reachable.
	net.Drop("acc2")
	const n = 200
	for i := 0; i < n; i++ {
		g.propose([]byte(fmt.Sprintf("after%03d", i)))
	}
	items := collectItems(t, cur, n)
	if len(items) != n {
		t.Fatalf("got %d items after acceptor crash, want %d", len(items), n)
	}
}

func TestLostDecisionRecoveredByLearnReq(t *testing.T) {
	net := newTestNet(t, 3)
	g := startGroup(t, net, groupOptions{})

	cur := g.learners[0].NewCursor()
	// Drop decision pushes from the coordinator to the learner for a
	// while: the learner must catch up via LearnReq once traffic
	// resumes.
	net.SetFault("", "learner0", transport.Fault{DropProb: 0.7})
	const n = 500
	for i := 0; i < n; i++ {
		g.propose([]byte(fmt.Sprintf("v%04d", i)))
	}
	time.Sleep(50 * time.Millisecond)
	net.SetFault("", "learner0", transport.Fault{})
	// One more proposal creates an out-of-order decision beyond any
	// hole, triggering gap recovery.
	g.propose([]byte("tail"))
	items := collectItems(t, cur, n+1)
	if string(items[n]) != "tail" {
		t.Fatalf("last item %q, want tail", items[n])
	}
}

func TestCoordinatorFailover(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{
		candidates: 2,
		takeover:   100 * time.Millisecond,
		heartbeat:  10 * time.Millisecond,
	})

	cur := g.learners[0].NewCursor()
	g.propose([]byte("pre"))
	collectItems(t, cur, 1)

	// Kill the leader.
	_ = g.coords[0].Close()
	net.Drop(g.candAddrs[0])

	// Wait for the standby to take over.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g.coords[1].Status().Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("standby never became leader")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Propose through the new leader.
	const n = 100
	for i := 0; i < n; i++ {
		g.proposeTo(1, []byte(fmt.Sprintf("post%03d", i)))
	}
	items := collectItems(t, cur, n)
	if len(items) != n {
		t.Fatalf("got %d items after failover, want %d", len(items), n)
	}
}

// Fail-over after the acceptors have truncated: a standby that missed
// every decision (its frontier is 0) takes over from acceptors that
// dropped the decided prefix. It must start at or past their trim mark
// — below it no quorum vouches for anything, and hole-filling there
// would overwrite decided instances with empty batches — and fetch the
// prefix it skipped from the other standby, while the learners'
// sequences stay identical through the change of leader.
func TestFailoverAfterAcceptorsTrimmed(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{
		candidates: 3,
		learners:   2,
		takeover:   100 * time.Millisecond,
		heartbeat:  10 * time.Millisecond,
		flush:      time.Hour,
	})
	cur0 := g.learners[0].NewCursor()
	cur1 := g.learners[1].NewCursor()

	// Candidate 1 hears heartbeats (protocol endpoint) but no decision.
	net.SetFault("", g.candAddrs[1], transport.Fault{Partitioned: true})
	// One proposal at a time on an idle group is one instance each.
	const pre = acceptorRetain + 200
	var want []string
	for i := 0; i < pre; i++ {
		want = append(want, fmt.Sprintf("pre%04d", i))
		g.propose([]byte(want[i]))
		collectItems(t, cur0, 1)
	}
	// The learner can hold the last item before an acceptor outside the
	// deciding quorum has seen the Phase2a that moved its mark, so wait
	// for a quorum of marks; the new leader's Phase 1 hears at least one
	// of them.
	var mark uint64
	waitFor(t, func() bool {
		mark = 0
		trimmed := 0
		for _, a := range g.acceptors {
			m := a.Trimmed()
			if m > pre-acceptorRetain {
				t.Fatalf("acceptor trim mark %d after %d decided instances, want within (0, %d]", m, pre, pre-acceptorRetain)
			}
			if m > 0 {
				trimmed++
				mark = max(mark, m)
			}
		}
		return trimmed > len(g.acceptors)/2
	}, func() string {
		marks := make([]uint64, len(g.acceptors))
		for i, a := range g.acceptors {
			marks[i] = a.Trimmed()
		}
		return fmt.Sprintf("acceptor trim marks %v after %d decided instances, want a quorum within (0, %d]", marks, pre, pre-acceptorRetain)
	})
	net.SetFault("", g.candAddrs[1], transport.Fault{})

	_ = g.coords[0].Close()
	net.Drop(g.candAddrs[0])
	net.Drop(ProtoAddr(g.candAddrs[0]))
	waitLeader(t, g.coords[1])
	if st := g.coords[1].Status(); st.NextInstance < mark {
		t.Fatalf("new leader proposes from instance %d, below the acceptors' trim mark %d", st.NextInstance, mark)
	}

	const post = 100
	for i := 0; i < post; i++ {
		want = append(want, fmt.Sprintf("post%03d", i))
		g.proposeTo(1, []byte(want[pre+i]))
	}
	got0 := append([][]byte{}, collectItems(t, cur0, post)...)
	got1 := collectItems(t, cur1, pre+post)
	for i, w := range want {
		if string(got1[i]) != w {
			t.Fatalf("learner 1 item %d = %q, want %q", i, got1[i], w)
		}
		if i >= pre && string(got0[i-pre]) != w {
			t.Fatalf("learner 0 item %d = %q, want %q", i, got0[i-pre], w)
		}
	}

	// The new leader's log holds the real instance 0 (learned from
	// candidate 2), not an empty hole-filler.
	probe, err := net.Listen("probe")
	if err != nil {
		t.Fatal(err)
	}
	req := encodeMessage(&message{Type: msgLearnReq, Group: g.group, Addr: "probe"})
	waitFor(t, func() bool {
		_ = net.Send(g.candAddrs[1], req)
		select {
		case frame := <-probe.Recv():
			m, err := decodeMessage(frame)
			if err != nil || m.Type != msgDecision || m.Instance != 0 {
				t.Fatalf("probe reply %+v, %v", m, err)
			}
			b, err := DecodeBatch(m.Value)
			if err != nil || len(b.Items) != 1 || string(b.Items[0]) != want[0] {
				t.Fatalf("new leader retransmits instance 0 as %+v, want [%s]", b, want[0])
			}
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	}, func() string { return "the new leader never learned the prefix below the trim mark" })
}

func TestProposalForwardedToLeader(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{
		candidates: 2,
		heartbeat:  10 * time.Millisecond,
	})

	// Give the standby time to learn the leader via heartbeats.
	time.Sleep(50 * time.Millisecond)
	cur := g.learners[0].NewCursor()
	// Propose to the standby: it must forward to candidate 0.
	g.proposeTo(1, []byte("forwarded"))
	items := collectItems(t, cur, 1)
	if string(items[0]) != "forwarded" {
		t.Fatalf("got %q", items[0])
	}
}

func TestSkipBatchesEmittedWhenIdle(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{skip: 5 * time.Millisecond})

	cur := g.learners[0].NewCursor()
	deadline := time.After(5 * time.Second)
	type result struct {
		b  *Batch
		ok bool
	}
	ch := make(chan result, 1)
	go func() {
		b, _, ok := cur.Next()
		ch <- result{b: b, ok: ok}
	}()
	select {
	case r := <-ch:
		if !r.ok || !r.b.Skip {
			t.Fatalf("first idle batch = %+v", r.b)
		}
		if r.b.SkipSlots == 0 {
			t.Fatal("skip slots must be >= 1")
		}
	case <-deadline:
		t.Fatal("no skip batch emitted while idle")
	}
}

// A skip tick that comes late pays for every interval it missed, less
// what real traffic produced meanwhile: the stream's slot count tracks
// elapsed time, not the number of ticks the runtime got to deliver.
func TestSkipTickPaysForDroppedTicks(t *testing.T) {
	c := newAdmissionCoordinator()
	c.cfg.SkipInterval = time.Millisecond
	c.skipEpoch = time.Now()
	skipSlots := func(inst uint64) uint32 {
		t.Helper()
		b, err := DecodeBatch(c.pending[inst].value)
		if err != nil || !b.Skip {
			t.Fatalf("instance %d is not a skip batch: %+v, %v", inst, b, err)
		}
		return b.SkipSlots
	}
	c.skipTick(c.skipEpoch.Add(time.Millisecond + 100*time.Microsecond))
	if got := skipSlots(0); got != c.cfg.SkipSlots {
		t.Fatalf("on-time tick pads %d slots, want %d", got, c.cfg.SkipSlots)
	}
	// Ticks 2 and 3 are dropped; 100 commands were ordered meanwhile.
	c.slotsSinceTick = 100
	c.skipTick(c.skipEpoch.Add(4*time.Millisecond + 300*time.Microsecond))
	if got, want := skipSlots(1), 3*c.cfg.SkipSlots-100; got != want {
		t.Fatalf("tick after two dropped ones pads %d slots, want %d", got, want)
	}
	// Real traffic beyond the rate needs no padding.
	c.slotsSinceTick = c.cfg.SkipSlots
	c.skipTick(c.skipEpoch.Add(5 * time.Millisecond))
	if len(c.pending) != 2 {
		t.Fatalf("a busy interval was padded: %d instances in flight, want 2", len(c.pending))
	}
}

func TestSkipSuppressedUnderLoad(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{skip: time.Millisecond})

	cur := g.learners[0].NewCursor()
	// Keep the group busy; count skips among the first batches.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				// Exit on send error instead of t.Fatalf: this goroutine
				// races test teardown by design.
				if g.tryPropose(0, []byte("x")) != nil {
					return
				}
			}
		}
	}()
	var batches, skips int
	deadline := time.Now().Add(3 * time.Second)
	for batches < 500 && time.Now().Before(deadline) {
		b, _, ok := cur.Next()
		if !ok {
			break
		}
		batches++
		if b.Skip {
			skips++
		}
	}
	if batches < 500 {
		t.Fatalf("only %d batches", batches)
	}
	// Padding emits at most one skip per tick, so under sustained load
	// real batches must dominate the sequence.
	if skips > batches/2 {
		t.Fatalf("%d skips among %d batches under load", skips, batches)
	}
}

func TestLearnerCursorsIndependent(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{})

	cur1 := g.learners[0].NewCursor()
	cur2 := g.learners[0].NewCursor()
	const n = 100
	for i := 0; i < n; i++ {
		g.propose([]byte(fmt.Sprintf("v%03d", i)))
	}
	a := collectItems(t, cur1, n)
	b := collectItems(t, cur2, n)
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("cursors diverge at %d", i)
		}
	}
}

func TestLearnerCloseUnblocksCursor(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{})

	cur := g.learners[0].NewCursor()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, _, ok := cur.Next(); !ok {
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	_ = g.learners[0].Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cursor not unblocked by learner close")
	}
}

func TestTryNext(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{})

	cur := g.learners[0].NewCursor()
	if _, _, ready := cur.TryNext(); ready {
		t.Fatal("TryNext ready on empty log")
	}
	g.propose([]byte("x"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, _, ready := cur.TryNext(); ready {
			if b.Skip || len(b.Items) != 1 {
				t.Fatalf("unexpected batch %+v", b)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("TryNext never became ready")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatchingUnderBurst(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{})

	cur := g.learners[0].NewCursor()
	// A burst of small proposals should be coalesced into far fewer
	// batches than proposals.
	const n = 2000
	for i := 0; i < n; i++ {
		g.propose([]byte("abcdefgh"))
	}
	var batches, items int
	for items < n {
		b, _, ok := cur.Next()
		if !ok {
			t.Fatal("cursor closed early")
		}
		if b.Skip {
			continue
		}
		batches++
		items += len(b.Items)
	}
	if items != n {
		t.Fatalf("items = %d, want %d", items, n)
	}
	if batches >= n/2 {
		t.Fatalf("batching ineffective: %d batches for %d proposals", batches, n)
	}
}

func TestAcceptorNackOnLowerBallot(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()

	a, err := StartAcceptor(AcceptorConfig{GroupID: 1, ID: 0, Addr: "acc", Transport: net})
	if err != nil {
		t.Fatalf("StartAcceptor: %v", err)
	}
	defer a.Close()

	reply, err := net.Listen("probe")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	// Promise a high ballot.
	high := MakeBallot(10, 0)
	_ = net.Send("acc", encodeMessage(&message{
		Type: msgPhase1a, Group: 1, Ballot: high, Addr: "probe",
	}))
	m := recvMsg(t, reply)
	if m.Type != msgPhase1b || m.Ballot != high {
		t.Fatalf("got %v %v", m.Type, m.Ballot)
	}

	// A lower phase2a must be nacked with the promised ballot.
	_ = net.Send("acc", encodeMessage(&message{
		Type: msgPhase2a, Group: 1, Ballot: MakeBallot(5, 0), Instance: 0,
		Addr: "probe", Value: []byte("v"),
	}))
	m = recvMsg(t, reply)
	if m.Type != msgNack || m.Ballot != high {
		t.Fatalf("got %v %v, want nack %v", m.Type, m.Ballot, high)
	}

	// A lower phase1a must also be nacked.
	_ = net.Send("acc", encodeMessage(&message{
		Type: msgPhase1a, Group: 1, Ballot: MakeBallot(7, 0), Addr: "probe",
	}))
	m = recvMsg(t, reply)
	if m.Type != msgNack {
		t.Fatalf("got %v, want nack", m.Type)
	}
}

func TestAcceptorReportsAcceptedOnPhase1(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()

	a, err := StartAcceptor(AcceptorConfig{GroupID: 1, ID: 0, Addr: "acc", Transport: net})
	if err != nil {
		t.Fatalf("StartAcceptor: %v", err)
	}
	defer a.Close()

	reply, err := net.Listen("probe")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	b1 := MakeBallot(1, 0)
	for inst := uint64(0); inst < 3; inst++ {
		_ = net.Send("acc", encodeMessage(&message{
			Type: msgPhase2a, Group: 1, Ballot: b1, Instance: inst,
			Addr: "probe", Value: []byte(fmt.Sprintf("v%d", inst)),
		}))
		recvMsg(t, reply)
	}
	// New ballot's phase 1 must report instances >= 1.
	b2 := MakeBallot(2, 1)
	_ = net.Send("acc", encodeMessage(&message{
		Type: msgPhase1a, Group: 1, Ballot: b2, Instance: 1, Addr: "probe",
	}))
	m := recvMsg(t, reply)
	if m.Type != msgPhase1b {
		t.Fatalf("got %v", m.Type)
	}
	if len(m.Entries) != 2 {
		t.Fatalf("entries = %d, want 2 (instances 1,2)", len(m.Entries))
	}
	for _, e := range m.Entries {
		if e.Instance < 1 || e.Instance > 2 {
			t.Fatalf("unexpected instance %d", e.Instance)
		}
		if want := fmt.Sprintf("v%d", e.Instance); string(e.Value) != want {
			t.Fatalf("entry %d value %q", e.Instance, e.Value)
		}
	}
}

func recvMsg(t *testing.T, ep transport.Endpoint) *message {
	t.Helper()
	select {
	case frame, ok := <-ep.Recv():
		if !ok {
			t.Fatal("endpoint closed")
		}
		m, err := decodeMessage(frame)
		if err != nil {
			t.Fatalf("decodeMessage: %v", err)
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return nil
	}
}
