package paxos

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

// CoordinatorConfig configures one coordinator candidate of one group.
type CoordinatorConfig struct {
	GroupID uint32
	// CandidateIdx is this candidate's position in Candidates. The
	// candidate at index 0 assumes leadership on startup; others take
	// over (in order) when heartbeats stop.
	CandidateIdx int
	// Candidates are the coordinator endpoints in take-over order.
	Candidates []transport.Addr
	// Acceptors are the group's acceptor endpoints.
	Acceptors []transport.Addr
	// Learners receive Decision pushes. Coordinator candidates should
	// also be listed here (the constructor adds them automatically) so
	// standbys can serve retransmission after a fail-over.
	Learners []transport.Addr
	// Relays, when non-empty, compartmentalize the decision broadcast:
	// instead of sending every decision to every learner itself, the
	// leader stripes decisions across the relays (instance mod relay
	// count) and each relay re-broadcasts to all learners. The leader's
	// per-decision send work becomes O(1) regardless of learner count.
	// Learners re-sequence the cross-stripe arrivals through their
	// out-of-order buffer, so decided order is unaffected; gap
	// retransmission still flows learner -> coordinator directly.
	Relays []transport.Addr
	// Transport carries the coordinator's traffic.
	Transport transport.Transport

	// BatchMaxBytes flushes a batch when its payload reaches this size,
	// whatever is in flight. Default 8192, the paper's 8 KB (§VI-A).
	BatchMaxBytes int
	// FlushInterval is an upper bound, not a delay: the batch in
	// formation is proposed as soon as the inbound endpoints are drained
	// and nothing is in flight, or when the instance in flight decides
	// (see Coordinator). The timer only bounds the wait when that
	// decision never comes (lost messages). Default 5ms.
	FlushInterval time.Duration
	// SkipInterval, when positive, makes the leader pad the group's
	// sequence with skip batches so the group produces at least
	// SkipSlots merge slots per interval even when idle or slow
	// (Multi-Ring Paxos's rate matching). Deterministic merges over
	// multiple groups stall without it. Default 0 (disabled).
	SkipInterval time.Duration
	// SkipSlots is the target number of merge slots (one slot = one
	// command) per SkipInterval; it must equal the merge weight used
	// by receivers. Default 256.
	SkipSlots uint32
	// HeartbeatInterval is the leader's heartbeat period. Default 20ms.
	HeartbeatInterval time.Duration
	// TakeoverTimeout is how long a standby waits without heartbeats
	// before attempting to lead; it is scaled by the candidate's
	// distance from the believed leader to avoid duels. Default 250ms.
	TakeoverTimeout time.Duration
	// Optimistic makes the leader push every flushed batch to the
	// learners BEFORE running phase 2 on it (optimistic atomic
	// broadcast): learners gain an unordered best-effort stream that
	// usually predicts the decided order, letting replicas execute
	// speculatively while consensus is still in flight. Decisions are
	// pushed exactly as without it; the optimistic stream is purely
	// additive.
	Optimistic bool
	// Window bounds the number of in-flight (proposed, undecided)
	// instances. Default 64.
	Window int
	// CPU optionally meters the coordinator's busy time.
	CPU *bench.RoleMeter
	// Trace optionally stamps sampled commands at the leader-admit and
	// decided stage boundaries (and carries trace context across the
	// wire: inbound proposal tags are absorbed, outbound decision/
	// optimistic frames are re-tagged).
	Trace *obs.Tracer
	// Journal optionally records flush/decide events in the flight
	// recorder.
	Journal *obs.Journal
}

func (c *CoordinatorConfig) fillDefaults() {
	if c.BatchMaxBytes <= 0 {
		c.BatchMaxBytes = 8192
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 5 * time.Millisecond
	}
	if c.SkipSlots == 0 {
		c.SkipSlots = 256
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 20 * time.Millisecond
	}
	if c.TakeoverTimeout <= 0 {
		c.TakeoverTimeout = 250 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 64
	}
}

// pendingInstance is one proposed, undecided instance. value aliases
// the Phase2a frame that proposed it.
type pendingInstance struct {
	value []byte
	acks  map[uint32]bool
}

// sealBelow is the number of in-flight instances below which the leader
// proposes the batch in formation without waiting for it to fill. At 1,
// an idle leader orders a lone command in one message round trip and a
// busy one forms the next batch while the previous is in consensus
// (group commit); full batches are proposed whatever is in flight, so a
// loaded leader still pipelines up to Window.
const sealBelow = 1

// decisionLogBytes and decisionLogInstances cap the retransmission log
// (see Coordinator.decisions) once it holds acceptorRetain instances
// behind the frontier: a learner further behind than the acceptors keep
// needs state transfer, so a larger log is memory no recovery path uses.
const (
	decisionLogBytes     = 16 << 20
	decisionLogInstances = 16384
)

// drainMax bounds how many already-readable frames the event loop
// handles between two blocking selects.
const drainMax = 256

// ProtoAddr derives the protocol (priority) endpoint address of a
// coordinator candidate from its public proposal address. Acceptor
// replies and heartbeats use this endpoint so that floods of client
// proposals can never delay consensus completions or fail-over
// detection.
func ProtoAddr(candidate transport.Addr) transport.Addr {
	return candidate + "!proto"
}

// Coordinator is a group's proposer/leader role: it batches client
// proposals, runs Paxos phase 2 (phase 1 on ballot changes), pushes
// decisions to learners, serves retransmission requests, and
// participates in leader fail-over.
//
// Batching is event-driven: the batch in formation is proposed when it
// reaches BatchMaxBytes, or when fewer than sealBelow instances are in
// flight once the event loop has handled what was readable — the
// inbound endpoints ran dry, or the instance in flight decided. An idle
// group therefore adds no delay and a saturated one forms batches as
// large as arrive during a consensus round; FlushInterval is only the
// upper bound for a round that never ends.
//
// It listens on two endpoints: the public one (client proposals,
// retransmission requests, decision gossip) and a protocol one
// (acceptor replies, heartbeats) that the event loop drains with
// priority.
type Coordinator struct {
	cfg     CoordinatorConfig
	ep      transport.Endpoint
	protoEP transport.Endpoint

	// Leadership state (goroutine-confined to run()).
	leader         bool
	preparing      bool
	ballot         Ballot
	highestSeen    Ballot
	believedLeader int
	lastHeartbeat  time.Time

	// Phase 1 state. p1Mark is the highest trim mark the promising
	// acceptors reported.
	p1Acks    map[uint32]bool
	p1Entries map[uint64]acceptedEntry
	p1Mark    uint64

	// Instance state.
	nextInstance uint64
	pending      map[uint64]*pendingInstance
	backlog      [][]byte // Phase2a frames awaiting window space (or leadership)

	// Current batch being accumulated.
	curItems [][]byte
	curBytes int

	// Decision log for learner retransmission: every instance at or
	// above trimBelow that this candidate decided or was told of. After
	// each store the oldest instance is dropped while both hold: the log
	// holds more than decisionLogBytes of values (logBytes) or more than
	// decisionLogInstances instances, and more than acceptorRetain
	// instances remain below frontier. A value aliases the Decision frame
	// it was pushed (or gossiped) in, which in-process is the buffer the
	// learners' logs alias too.
	decisions map[uint64][]byte
	frontier  uint64 // all instances < frontier are decided
	trimBelow uint64
	// slotsSinceTick counts merge slots produced by real batches since
	// the last skip tick; the tick pads the difference to SkipSlots per
	// interval elapsed. skipEpoch is when the skip ticker started,
	// skipTicks how many of its intervals have been accounted for.
	slotsSinceTick uint32
	skipEpoch      time.Time
	skipTicks      uint64
	// optSeq numbers this leader's optimistic deliveries within its
	// current ballot (Optimistic only).
	optSeq uint64

	flushTimer *time.Timer
	stop       chan struct{}
	done       chan struct{}

	// statusCh serves Status() queries without data races.
	statusCh chan chan Status

	// Inbound admission counters (atomics: read concurrently by
	// Counters()). A proxy tier shows up here as frames-per-command
	// falling below 1. decided counts decision pushes, the activity
	// signal the relay-staleness watchdog compares stripes against.
	inFrames   atomic.Uint64
	inCommands atomic.Uint64
	decided    atomic.Uint64
	// The decision log's size (only the event loop writes these) and
	// the instances LearnReqs asked for below trimBelow.
	logBytes      atomic.Int64
	logInstances  atomic.Int64
	learnUnserved atomic.Uint64
}

// CoordinatorCounters reports a coordinator's inbound admission work:
// how many proposal frames it received versus how many commands those
// frames carried. Direct client submission costs one frame per
// command; a proxy tier amortizes one frame over a whole proxy batch.
type CoordinatorCounters struct {
	InboundFrames   uint64
	InboundCommands uint64
	// Decided counts the decision pushes this coordinator performed as
	// leader (0 on a standby).
	Decided uint64
	// LogBytes and LogInstances are the size of the retransmission log:
	// the values it retains and how many instances they are.
	LogBytes     uint64
	LogInstances uint64
	// LearnUnserved counts the instances retransmission requests asked
	// for below the log; those need state transfer, not retransmission.
	LearnUnserved uint64
}

// FramesPerCommand is the admission cost ratio; 0 when no commands
// were admitted.
func (c CoordinatorCounters) FramesPerCommand() float64 {
	if c.InboundCommands == 0 {
		return 0
	}
	return float64(c.InboundFrames) / float64(c.InboundCommands)
}

// Counters returns the coordinator's admission counters. Safe to call
// concurrently with the event loop.
func (c *Coordinator) Counters() CoordinatorCounters {
	return CoordinatorCounters{
		InboundFrames:   c.inFrames.Load(),
		InboundCommands: c.inCommands.Load(),
		Decided:         c.decided.Load(),
		LogBytes:        uint64(c.logBytes.Load()),
		LogInstances:    uint64(c.logInstances.Load()),
		LearnUnserved:   c.learnUnserved.Load(),
	}
}

// Status is a snapshot of coordinator state, for tests and monitoring.
type Status struct {
	Leader       bool
	Ballot       Ballot
	NextInstance uint64
	Pending      int
	Backlog      int
}

// StartCoordinator launches a coordinator candidate.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg.fillDefaults()
	if cfg.CandidateIdx < 0 || cfg.CandidateIdx >= len(cfg.Candidates) {
		return nil, fmt.Errorf("coordinator: candidate index %d outside candidates[%d]",
			cfg.CandidateIdx, len(cfg.Candidates))
	}
	ep, err := cfg.Transport.Listen(cfg.Candidates[cfg.CandidateIdx])
	if err != nil {
		return nil, fmt.Errorf("coordinator %d/%d listen: %w", cfg.GroupID, cfg.CandidateIdx, err)
	}
	protoEP, err := cfg.Transport.Listen(ProtoAddr(cfg.Candidates[cfg.CandidateIdx]))
	if err != nil {
		_ = ep.Close()
		return nil, fmt.Errorf("coordinator %d/%d listen proto: %w", cfg.GroupID, cfg.CandidateIdx, err)
	}
	c := &Coordinator{
		cfg:            cfg,
		ep:             ep,
		protoEP:        protoEP,
		pending:        make(map[uint64]*pendingInstance),
		decisions:      make(map[uint64][]byte),
		believedLeader: 0,
		lastHeartbeat:  time.Now(),
		flushTimer:     time.NewTimer(time.Hour),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
		statusCh:       make(chan chan Status),
	}
	if !c.flushTimer.Stop() {
		<-c.flushTimer.C
	}
	go c.run()
	return c, nil
}

// Close stops the coordinator and waits for its goroutine.
func (c *Coordinator) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	err := c.ep.Close()
	_ = c.protoEP.Close()
	<-c.done
	return err
}

// Status returns a consistent snapshot of the coordinator's state.
func (c *Coordinator) Status() Status {
	reply := make(chan Status, 1)
	select {
	case c.statusCh <- reply:
		return <-reply
	case <-c.done:
		return Status{}
	}
}

func (c *Coordinator) run() {
	defer close(c.done)

	hbTicker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer hbTicker.Stop()

	var skipC <-chan time.Time
	if c.cfg.SkipInterval > 0 {
		c.skipEpoch = time.Now() // not after the ticker's own start: tick k must count k intervals
		skipTicker := time.NewTicker(c.cfg.SkipInterval)
		defer skipTicker.Stop()
		skipC = skipTicker.C
	}

	// Candidate 0 leads from the start; standbys wait for silence.
	if c.cfg.CandidateIdx == 0 {
		c.startPhase1()
	}

	for {
		var t0 time.Time
		select {
		case <-c.stop:
			return
		case reply := <-c.statusCh:
			reply <- Status{
				Leader:       c.leader,
				Ballot:       c.ballot,
				NextInstance: c.nextInstance,
				Pending:      len(c.pending),
				Backlog:      len(c.backlog),
			}
			continue
		case frame, ok := <-c.protoEP.Recv():
			if !ok {
				return
			}
			t0 = time.Now()
			c.handle(frame)
		case frame, ok := <-c.ep.Recv():
			if !ok {
				return
			}
			t0 = time.Now()
			c.handle(frame)
		case <-c.flushTimer.C:
			t0 = time.Now()
			c.flush()
		case <-skipC:
			// The tick's own timestamp is not used: under load the
			// runtime hands ticks over late and their times can even run
			// backwards by an interval, while t0 never does.
			t0 = time.Now()
			c.skipTick(t0)
		case <-hbTicker.C:
			t0 = time.Now()
			c.heartbeatTick()
		}
		open := c.drain()
		c.cfg.CPU.Add(time.Since(t0))
		if !open {
			return
		}
	}
}

// drain handles what is already readable — at most drainMax frames, so
// that timers, Status and Close are served under sustained load — and
// then proposes the batch in formation if little enough is in flight
// (sealEarly): the endpoints ran dry, or an instance decided on the way.
// Protocol traffic (acceptor replies, heartbeats) goes first so that
// floods of client proposals cannot delay consensus completions or
// fail-over detection. It reports false when an endpoint closed.
func (c *Coordinator) drain() bool {
	for n := 0; n < drainMax; n++ {
		var (
			frame []byte
			ok    bool
		)
		select {
		case frame, ok = <-c.protoEP.Recv():
		default:
			select {
			case frame, ok = <-c.ep.Recv():
			default:
				c.sealEarly()
				return true
			}
		}
		if !ok {
			return false
		}
		c.handle(frame)
	}
	c.sealEarly()
	return true
}

func (c *Coordinator) handle(frame []byte) {
	// Fold wire-shipped trace tags into the local tracer before
	// decoding. Only proposal/decision frames carry tags; gating on
	// the type byte keeps every other message off the magic-byte scan.
	if len(frame) > 0 {
		switch msgType(frame[0]) {
		case msgPropose, msgProposeBatch, msgDecision:
			frame = c.cfg.Trace.AbsorbTags(frame)
		}
	}
	m, err := decodeMessage(frame)
	if err != nil || m.Group != c.cfg.GroupID {
		return
	}
	switch m.Type {
	case msgPropose:
		c.handlePropose(m)
	case msgProposeBatch:
		c.handleProposeBatch(m)
	case msgPhase1b:
		c.handlePhase1b(m)
	case msgPhase2b:
		c.handlePhase2b(m)
	case msgNack:
		c.handleNack(m)
	case msgDecision:
		c.storeDecision(m.Instance, m.Value)
	case msgLearnReq:
		c.handleLearnReq(m)
	case msgHeartbeat:
		c.handleHeartbeat(m)
	default:
	}
}

func (c *Coordinator) handlePropose(m *message) {
	if !c.leader && !c.preparing {
		// Forward once to the believed leader; afterwards the value is
		// dropped and client-level retransmission recovers it.
		if m.Flags&flagForwarded != 0 {
			return
		}
		target := c.cfg.Candidates[c.believedLeader%len(c.cfg.Candidates)]
		if target == c.cfg.Candidates[c.cfg.CandidateIdx] {
			return
		}
		fwd := *m
		fwd.Flags |= flagForwarded
		_ = c.cfg.Transport.Send(target, encodeMessage(&fwd))
		return
	}
	// Leaders (and candidates mid-phase-1) buffer the value.
	c.inFrames.Add(1)
	c.inCommands.Add(1)
	c.admit(m.Value)
}

// handleProposeBatch admits a proxy-sealed batch: the frame's value is
// a batch encoding whose items are individual proposal values. The
// leader unpacks it into the current consensus batch, so admission
// cost per command shrinks to decode-plus-append while flush
// thresholds, slot accounting (per command, in flush), optimistic
// delivery and skip suppression behave exactly as if the commands had
// arrived one frame each.
func (c *Coordinator) handleProposeBatch(m *message) {
	if !c.leader && !c.preparing {
		if m.Flags&flagForwarded != 0 {
			return
		}
		target := c.cfg.Candidates[c.believedLeader%len(c.cfg.Candidates)]
		if target == c.cfg.Candidates[c.cfg.CandidateIdx] {
			return
		}
		fwd := *m
		fwd.Flags |= flagForwarded
		_ = c.cfg.Transport.Send(target, encodeMessage(&fwd))
		return
	}
	b, err := DecodeBatch(m.Value)
	if err != nil || b.Skip {
		return
	}
	c.inFrames.Add(1)
	c.inCommands.Add(uint64(len(b.Items)))
	for _, item := range b.Items {
		c.admit(item)
	}
}

// admit buffers one proposal value into the current batch, flushing on
// the size threshold.
func (c *Coordinator) admit(value []byte) {
	c.cfg.Trace.Stamp(obs.StageLeaderAdmit, value)
	if len(c.curItems) == 0 {
		c.flushTimer.Reset(c.cfg.FlushInterval)
	}
	c.curItems = append(c.curItems, value)
	c.curBytes += len(value)
	if c.curBytes >= c.cfg.BatchMaxBytes {
		c.flush()
	}
}

// sealEarly proposes the batch in formation, however small, when fewer
// than sealBelow instances are in flight. The event loop calls it once
// it has handled what was readable, so a decision that came with more
// proposals behind it seals them all.
func (c *Coordinator) sealEarly() {
	if c.leader && len(c.pending) < sealBelow {
		c.flush()
	}
}

// flush encodes the current batch, straight into the Phase2a frame that
// will carry it, and proposes it (or backlogs it when the window is
// full).
func (c *Coordinator) flush() {
	if len(c.curItems) == 0 {
		return
	}
	frame := newBatchFrame(msgPhase2a, c.cfg.GroupID, c.protoAddr(), c.curItems)
	c.cfg.Journal.Emit(obs.EvLeaderFlush, uint64(len(c.curItems)), uint64(c.curBytes))
	// One merge slot per command (not per batch): slot accounting must
	// match the receivers' command-granular merge.
	c.slotsSinceTick += uint32(len(c.curItems))
	c.curItems = nil
	c.curBytes = 0
	c.flushTimer.Stop()
	c.propose(frame)
}

func (c *Coordinator) protoAddr() transport.Addr {
	return ProtoAddr(c.cfg.Candidates[c.cfg.CandidateIdx])
}

// propose assigns the next instance to a Phase2a frame built without
// one (flush, skipTick) and sends it, or backlogs it while this
// candidate is not leading or the window is full.
func (c *Coordinator) propose(frame []byte) {
	if !c.leader || len(c.pending) >= c.cfg.Window {
		c.backlog = append(c.backlog, frame)
		return
	}
	inst := c.nextInstance
	c.nextInstance++
	value := frameValue(frame)
	c.pending[inst] = &pendingInstance{value: value, acks: make(map[uint32]bool, len(c.cfg.Acceptors))}
	// Optimistic delivery: push the value to the learners BEFORE phase 2
	// runs on it. Emitting at instance-assignment time means the
	// optimistic sequence is exactly the leader's proposal order
	// (backlogged values included), so under a stable leader the
	// optimistic stream predicts the decided order. Skip batches carry
	// no commands and are not announced.
	if c.cfg.Optimistic && len(value) > 0 && value[0] == batchKindNormal {
		m := &message{
			Type:     msgOptimistic,
			Group:    c.cfg.GroupID,
			Ballot:   c.ballot,
			Instance: c.optSeq,
			Value:    value,
		}
		opt := encodeMessage(m)
		opt = appendBatchTags(c.cfg.Trace, opt, value)
		if n := len(c.cfg.Relays); n > 0 {
			_ = c.cfg.Transport.Send(c.cfg.Relays[c.optSeq%uint64(n)], opt)
		} else {
			for _, l := range c.cfg.Learners {
				_ = c.cfg.Transport.Send(l, opt)
			}
		}
		c.optSeq++
	}
	binary.LittleEndian.PutUint64(frame[ballotOff:], uint64(c.ballot))
	binary.LittleEndian.PutUint64(frame[instanceOff:], inst)
	// The decided frontier rides along so acceptors can truncate.
	binary.LittleEndian.PutUint64(frame[toOff:], c.frontier)
	for _, acc := range c.cfg.Acceptors {
		_ = c.cfg.Transport.Send(acc, frame)
	}
}

// rePropose runs phase 2 on an instance a new leader inherited (or
// hole-fills) after phase 1.
func (c *Coordinator) rePropose(inst uint64, value []byte) {
	frame := encodeMessage(&message{
		Type:      msgPhase2a,
		Group:     c.cfg.GroupID,
		Ballot:    c.ballot,
		Instance:  inst,
		Instance2: Instance2{To: c.frontier},
		Addr:      c.protoAddr(),
		Value:     value,
	})
	c.pending[inst] = &pendingInstance{value: frameValue(frame), acks: make(map[uint32]bool, len(c.cfg.Acceptors))}
	for _, acc := range c.cfg.Acceptors {
		_ = c.cfg.Transport.Send(acc, frame)
	}
}

func (c *Coordinator) handlePhase2b(m *message) {
	if !c.leader || m.Ballot != c.ballot {
		return
	}
	p, ok := c.pending[m.Instance]
	if !ok {
		return
	}
	p.acks[m.Acceptor] = true
	if len(p.acks) < c.quorum() {
		return
	}
	delete(c.pending, m.Instance)
	c.decide(m.Instance, p.value)
	c.drainBacklog()
}

func (c *Coordinator) decide(inst uint64, value []byte) {
	if tr := c.cfg.Trace; tr != nil {
		WalkBatchItems(value, func(item []byte) { tr.Stamp(obs.StageDecided, item) })
	}
	c.decided.Add(1)
	c.cfg.Journal.Emit(obs.EvDecide, uint64(c.cfg.GroupID), inst)
	m := &message{
		Type:     msgDecision,
		Group:    c.cfg.GroupID,
		Instance: inst,
		Value:    value,
	}
	frame := encodeMessage(m)
	frame = appendBatchTags(c.cfg.Trace, frame, value)
	// Retain the copy inside the frame, not the proposal's: the Phase2a
	// frame then dies with the acceptors' truncation, and in-process this
	// log and the learners' share one buffer.
	c.storeDecision(inst, frameValue(frame))
	// Striped fan-out: with relays configured the leader hands each
	// decision to exactly one relay, which re-broadcasts to all
	// learners. Learners tolerate the resulting cross-stripe reordering
	// (out-of-order buffer) and recover a lost stripe through gap
	// retransmission against the coordinator.
	if n := len(c.cfg.Relays); n > 0 {
		_ = c.cfg.Transport.Send(c.cfg.Relays[inst%uint64(n)], frame)
		return
	}
	for _, l := range c.cfg.Learners {
		_ = c.cfg.Transport.Send(l, frame)
	}
}

// appendBatchTags appends the trace-context tag of every sampled
// command in the batch-encoded value to frame, so decision/optimistic
// frames carry the accumulated stamps to out-of-process learners. A
// no-op with a nil tracer or when nothing in the batch is sampled.
func appendBatchTags(tr *obs.Tracer, frame, value []byte) []byte {
	if tr == nil {
		return frame
	}
	WalkBatchItems(value, func(item []byte) {
		frame = tr.AppendTagForValue(frame, item)
	})
	return frame
}

func (c *Coordinator) storeDecision(inst uint64, value []byte) {
	if inst < c.trimBelow {
		return
	}
	if _, ok := c.decisions[inst]; ok {
		return
	}
	c.decisions[inst] = value
	c.logBytes.Add(int64(len(value)))
	c.advanceFrontier()
	for (c.logBytes.Load() > decisionLogBytes || len(c.decisions) > decisionLogInstances) &&
		c.frontier-c.trimBelow > acceptorRetain {
		c.logBytes.Add(-int64(len(c.decisions[c.trimBelow])))
		delete(c.decisions, c.trimBelow)
		c.trimBelow++
	}
	c.logInstances.Store(int64(len(c.decisions)))
}

// advanceFrontier moves the frontier over every contiguous decision.
func (c *Coordinator) advanceFrontier() {
	for {
		if _, ok := c.decisions[c.frontier]; !ok {
			break
		}
		c.frontier++
	}
	if c.nextInstance < c.frontier {
		c.nextInstance = c.frontier
	}
}

func (c *Coordinator) drainBacklog() {
	for len(c.backlog) > 0 && len(c.pending) < c.cfg.Window && c.leader {
		frame := c.backlog[0]
		c.backlog[0] = nil
		c.backlog = c.backlog[1:]
		if len(c.backlog) == 0 {
			c.backlog = nil
		}
		c.propose(frame)
	}
}

func (c *Coordinator) handleNack(m *message) {
	if m.Ballot > c.highestSeen {
		c.highestSeen = m.Ballot
	}
	if (c.leader || c.preparing) && m.Ballot > c.ballot {
		// Deposed: another candidate holds a higher ballot.
		c.leader = false
		c.preparing = false
		c.believedLeader = m.Ballot.Candidate()
		c.lastHeartbeat = time.Now()
	}
}

func (c *Coordinator) handleHeartbeat(m *message) {
	if m.Ballot > c.highestSeen {
		c.highestSeen = m.Ballot
	}
	if m.Ballot >= c.ballot {
		c.lastHeartbeat = time.Now()
		c.believedLeader = m.Ballot.Candidate()
		if (c.leader || c.preparing) && m.Ballot > c.ballot {
			c.leader = false
			c.preparing = false
		}
	}
}

// maxResend bounds the decisions one LearnReq is answered with.
const maxResend = 1024

func (c *Coordinator) handleLearnReq(m *message) {
	to := m.To
	if to >= m.Instance+maxResend {
		to = m.Instance + maxResend - 1
	}
	for inst := m.Instance; inst <= to; inst++ {
		value, ok := c.decisions[inst]
		if !ok {
			if inst < c.trimBelow {
				c.learnUnserved.Add(1)
			}
			continue
		}
		_ = c.cfg.Transport.Send(m.Addr, encodeMessage(&message{
			Type:     msgDecision,
			Group:    c.cfg.GroupID,
			Instance: inst,
			Value:    value,
		}))
	}
}

// skipTick pads the group's slot rate: if fewer than SkipSlots merge
// slots per elapsed interval were produced by real traffic since the
// last tick, a skip batch covers the deficit. Busy groups (or groups
// with queued work) produce slots on their own and are not padded.
//
// A ticker served late drops ticks, and a busy host serves it late all
// the time. The tick therefore pays for every interval that has elapsed
// since the last one it paid for, not for one: a group that merely
// topped each tick up would fall behind the other groups' streams by
// SkipSlots per dropped tick, for good, and every command merged
// against it would wait one more interval.
func (c *Coordinator) skipTick(now time.Time) {
	var due uint32
	if ticks := uint64(now.Sub(c.skipEpoch) / c.cfg.SkipInterval); ticks > c.skipTicks {
		due = uint32(ticks-c.skipTicks) * c.cfg.SkipSlots
		c.skipTicks = ticks
	}
	produced := c.slotsSinceTick
	c.slotsSinceTick = 0
	if !c.leader || len(c.backlog) > 0 || len(c.pending) >= c.cfg.Window {
		return
	}
	if produced >= due {
		return
	}
	// Flush any half-built batch first so its commands are not delayed
	// behind the skip.
	c.flush()
	c.propose(encodeMessage(&message{
		Type:  msgPhase2a,
		Group: c.cfg.GroupID,
		Addr:  c.protoAddr(),
		Value: EncodeBatch(&Batch{Skip: true, SkipSlots: due - produced}),
	}))
}

func (c *Coordinator) heartbeatTick() {
	if c.leader {
		m := &message{
			Type:     msgHeartbeat,
			Group:    c.cfg.GroupID,
			Ballot:   c.ballot,
			Instance: c.nextInstance,
		}
		frame := encodeMessage(m)
		for i, cand := range c.cfg.Candidates {
			if i == c.cfg.CandidateIdx {
				continue
			}
			_ = c.cfg.Transport.Send(ProtoAddr(cand), frame)
		}
		return
	}
	if c.preparing || len(c.cfg.Candidates) == 1 {
		return
	}
	// Standby: take over when the leader has been silent for the
	// timeout, scaled by this candidate's distance from the believed
	// leader so closer standbys move first.
	n := len(c.cfg.Candidates)
	dist := (c.cfg.CandidateIdx - c.believedLeader + n) % n
	if dist == 0 {
		dist = n
	}
	timeout := c.cfg.TakeoverTimeout * time.Duration(dist)
	if time.Since(c.lastHeartbeat) >= timeout {
		c.startPhase1()
	}
}

func (c *Coordinator) startPhase1() {
	round := c.highestSeen.Round() + 1
	if r := c.ballot.Round() + 1; r > round {
		round = r
	}
	c.ballot = MakeBallot(round, c.cfg.CandidateIdx)
	c.highestSeen = c.ballot
	c.preparing = true
	c.leader = false
	c.p1Acks = make(map[uint32]bool, len(c.cfg.Acceptors))
	c.p1Entries = make(map[uint64]acceptedEntry)
	c.p1Mark = 0
	m := &message{
		Type:     msgPhase1a,
		Group:    c.cfg.GroupID,
		Ballot:   c.ballot,
		Instance: c.frontier, // learn everything at or past our decided frontier
		Addr:     ProtoAddr(c.cfg.Candidates[c.cfg.CandidateIdx]),
	}
	frame := encodeMessage(m)
	for _, acc := range c.cfg.Acceptors {
		_ = c.cfg.Transport.Send(acc, frame)
	}
}

func (c *Coordinator) handlePhase1b(m *message) {
	if !c.preparing || m.Ballot != c.ballot {
		return
	}
	if c.p1Acks[m.Acceptor] {
		return
	}
	c.p1Acks[m.Acceptor] = true
	if m.To > c.p1Mark {
		c.p1Mark = m.To
	}
	for _, e := range m.Entries {
		cur, ok := c.p1Entries[e.Instance]
		if !ok || e.Ballot > cur.Ballot {
			c.p1Entries[e.Instance] = e
		}
	}
	if len(c.p1Acks) < c.quorum() {
		return
	}
	// Quorum promised: become leader and complete in-flight instances.
	c.preparing = false
	c.leader = true
	c.believedLeader = c.cfg.CandidateIdx
	c.pending = make(map[uint64]*pendingInstance)

	// Everything below the quorum's trim mark is decided, and an acceptor
	// that trimmed it no longer vouches for what the others still hold
	// there: a lagging standby must neither re-propose nor hole-fill
	// below the mark. It moves past it and asks the other candidates for
	// the decisions it skipped (its retransmission log only; learners
	// were pushed them by the leader that decided them).
	if c.p1Mark > c.frontier {
		c.learnGap(c.frontier, c.p1Mark)
		c.frontier = c.p1Mark
		c.advanceFrontier()
	}

	insts := make([]uint64, 0, len(c.p1Entries))
	for inst := range c.p1Entries {
		if inst >= c.frontier {
			insts = append(insts, inst)
		}
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	c.nextInstance = c.frontier
	for _, inst := range insts {
		if inst+1 > c.nextInstance {
			c.nextInstance = inst + 1
		}
	}
	for _, inst := range insts {
		c.rePropose(inst, c.p1Entries[inst].Value)
	}
	// Fill holes left between re-proposed instances with empty batches
	// so learners do not stall forever on gaps.
	for inst := c.frontier; inst < c.nextInstance; inst++ {
		if _, reProposed := c.pending[inst]; reProposed {
			continue
		}
		if _, decided := c.decisions[inst]; decided {
			continue
		}
		c.rePropose(inst, EncodeBatch(&Batch{Items: nil}))
	}
	c.p1Entries = nil
	c.p1Acks = nil
	c.drainBacklog()
}

// learnGap asks the other candidates to retransmit the decisions of
// [from, to), in requests no larger than one reply burst.
func (c *Coordinator) learnGap(from, to uint64) {
	for ; from < to; from += maxResend {
		last := to - 1
		if last >= from+maxResend {
			last = from + maxResend - 1
		}
		frame := encodeMessage(&message{
			Type:      msgLearnReq,
			Group:     c.cfg.GroupID,
			Instance:  from,
			Instance2: Instance2{To: last},
			Addr:      c.cfg.Candidates[c.cfg.CandidateIdx],
		})
		for i, cand := range c.cfg.Candidates {
			if i != c.cfg.CandidateIdx {
				_ = c.cfg.Transport.Send(cand, frame)
			}
		}
	}
}

func (c *Coordinator) quorum() int { return len(c.cfg.Acceptors)/2 + 1 }

// NewProposeFrame builds the frame a proposer (the multicast sender)
// sends to a coordinator candidate to order one value in a group.
func NewProposeFrame(group uint32, value []byte) []byte {
	return encodeMessage(&message{
		Type:  msgPropose,
		Group: group,
		Value: value,
	})
}
