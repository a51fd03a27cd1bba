package paxos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

// LearnerConfig configures a group learner.
type LearnerConfig struct {
	GroupID uint32
	// Addr is the endpoint decisions are pushed to.
	Addr transport.Addr
	// Transport carries the learner's traffic.
	Transport transport.Transport
	// Coordinators are the group's coordinator candidates, asked to
	// retransmit missing decisions when a gap stalls delivery.
	Coordinators []transport.Addr
	// GapTimeout is how long the frontier may stall (with later
	// decisions present) before requesting retransmission. Default
	// 50ms.
	GapTimeout time.Duration
	// TrimThreshold controls how much delivered log is retained before
	// compaction. Default 4096 batches. With a retain floor set
	// (SetRetainFloor — the checkpoint subsystem's stable-checkpoint
	// position) the threshold stops DRIVING the trim and becomes a cap:
	// the log below min(slowest cursor, floor) is dropped in small
	// chunks as the floor advances, and memory is bounded by the
	// checkpoint interval instead of the fixed count.
	TrimThreshold int
	// StartInstance positions the log: the learner joins the sequence
	// at this instance, ignoring earlier decisions. A replica recovering
	// from a checkpoint resumes delivery at the checkpoint's next
	// instance and replays only the decided suffix.
	StartInstance uint64
	// Optimistic retains the coordinators' optimistic (pre-consensus)
	// stream alongside the decided log, readable through OptCursor.
	// The stream is best-effort: values are delivered in arrival order,
	// duplicates (per leader ballot and optimistic sequence) are
	// dropped, and nothing in it ever affects the decided log — a
	// reordered, duplicated or never-decided optimistic value is the
	// speculation layer's problem, not consensus's.
	Optimistic bool
	// CPU optionally meters the learner's busy time.
	CPU *bench.RoleMeter
	// Trace optionally stamps sampled commands at the learner-delivery
	// stage boundary (decided stream only; the optimistic stream is
	// pre-consensus and not a pipeline boundary), and absorbs wire-
	// shipped trace tags off inbound decision/optimistic frames.
	Trace *obs.Tracer
	// Journal optionally records gap/out-of-order events in the flight
	// recorder.
	Journal *obs.Journal
}

// Learner receives a group's decisions and exposes them as an ordered
// log of batches. Multiple Cursors can read the log independently; this
// is how every worker thread of a replica consumes the shared g_all
// group without a central dispatcher.
type Learner struct {
	cfg LearnerConfig
	ep  transport.Endpoint

	mu       sync.Mutex
	cond     *sync.Cond
	log      []*Batch // decided batches [base, base+len)
	base     uint64   // instance id of log[0]
	frontier uint64   // next instance to extend the log with
	ooo      map[uint64][]byte
	cursors  []*Cursor
	closed   bool

	// Checkpoint-gated retention (SetRetainFloor): batches at or above
	// floor are retained for peer catch-up even after every cursor has
	// passed them; batches below may go as soon as the cursors allow.
	floorSet bool
	floor    uint64

	// Optimistic stream (cfg.Optimistic only): batches in arrival
	// order, trimmed as optimistic cursors pass. optSeen drops
	// duplicate (ballot, optSeq) frames.
	optLog     []*Batch
	optBase    uint64 // arrival id of optLog[0]
	optNext    uint64 // next arrival id to append
	optSeen    map[optID]struct{}
	optCursors []*OptCursor

	lastFrontier uint64
	gapStalls    atomic.Uint64
	done         chan struct{}
	stopGap      chan struct{}
}

// optID identifies one optimistic delivery: a leader term plus the
// term's optimistic sequence number.
type optID struct {
	ballot Ballot
	seq    uint64
}

// LearnerAddr names the learner endpoint of one replica for one group:
// the address the group's decisions are pushed to, shared by the
// cluster wiring and every replica kind.
func LearnerAddr(replicaID int, groupID uint32) transport.Addr {
	return transport.Addr(fmt.Sprintf("r%d/g%d", replicaID, groupID))
}

// StartLearner launches a learner; it runs until Close.
func StartLearner(cfg LearnerConfig) (*Learner, error) {
	if cfg.GapTimeout <= 0 {
		cfg.GapTimeout = 50 * time.Millisecond
	}
	if cfg.TrimThreshold <= 0 {
		cfg.TrimThreshold = 4096
	}
	ep, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("learner %d listen: %w", cfg.GroupID, err)
	}
	l := &Learner{
		cfg:      cfg,
		ep:       ep,
		base:     cfg.StartInstance,
		frontier: cfg.StartInstance,
		ooo:      make(map[uint64][]byte),
		done:     make(chan struct{}),
		stopGap:  make(chan struct{}),
	}
	l.lastFrontier = cfg.StartInstance
	if cfg.Optimistic {
		l.optSeen = make(map[optID]struct{})
	}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	go l.gapLoop()
	return l, nil
}

// Close stops the learner, unblocks all cursors, and waits for its
// goroutines.
func (l *Learner) Close() error {
	err := l.ep.Close()
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.stopGap)
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	<-l.done
	return err
}

// Frontier returns the next undecided instance (for tests).
func (l *Learner) Frontier() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frontier
}

// GapStalls counts the gap-loop ticks that found delivery stalled
// behind a hole (later decisions buffered, frontier unmoved). The
// cluster anomaly watcher treats a growing count as a dump trigger.
// Safe to call concurrently.
func (l *Learner) GapStalls() uint64 { return l.gapStalls.Load() }

// NewCursor returns an independent reader positioned at the oldest
// retained batch.
func (l *Learner) NewCursor() *Cursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &Cursor{l: l, pos: l.base}
	l.cursors = append(l.cursors, c)
	return c
}

func (l *Learner) run() {
	defer close(l.done)
	for frame := range l.ep.Recv() {
		t0 := time.Now()
		l.handle(frame)
		l.cfg.CPU.Add(time.Since(t0))
	}
}

func (l *Learner) handle(frame []byte) {
	// Fold wire-shipped trace tags (decision/optimistic frames only)
	// into the local tracer before decoding.
	if len(frame) > 0 {
		switch msgType(frame[0]) {
		case msgDecision, msgOptimistic:
			frame = l.cfg.Trace.AbsorbTags(frame)
		}
	}
	m, err := decodeMessage(frame)
	if err != nil || m.Group != l.cfg.GroupID {
		return
	}
	if m.Type == msgOptimistic {
		l.handleOptimistic(m)
		return
	}
	if m.Type != msgDecision {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if m.Instance < l.frontier {
		return // duplicate
	}
	if m.Instance > l.frontier {
		if _, ok := l.ooo[m.Instance]; !ok {
			l.ooo[m.Instance] = m.Value
			l.cfg.Journal.Emit(obs.EvLearnerOOO, m.Instance, l.frontier)
		}
		return
	}
	l.appendLocked(m.Value)
	for {
		v, ok := l.ooo[l.frontier]
		if !ok {
			break
		}
		delete(l.ooo, l.frontier)
		l.appendLocked(v)
	}
	l.cond.Broadcast()
}

// appendLocked decodes and appends the decision at the frontier.
func (l *Learner) appendLocked(value []byte) {
	b, err := DecodeBatch(value)
	if err != nil {
		// A corrupt decided value cannot be skipped (every learner
		// must deliver the same sequence), but it also cannot occur
		// without memory corruption: deliver an empty batch to keep
		// the stream moving and the replicas aligned.
		b = &Batch{}
	}
	if tr := l.cfg.Trace; tr != nil && !b.Skip {
		for _, item := range b.Items {
			tr.Stamp(obs.StageLearnerDeliver, item)
		}
	}
	l.log = append(l.log, b)
	l.frontier++
}

// handleOptimistic appends one optimistic (pre-consensus) value to the
// optimistic stream. The decided log is never touched: a duplicated,
// reordered or never-decided optimistic value can at worst mislead the
// speculation layer, which reconciles against the decided stream
// anyway.
func (l *Learner) handleOptimistic(m *message) {
	if !l.cfg.Optimistic {
		return
	}
	b, err := DecodeBatch(m.Value)
	if err != nil || b.Skip || len(b.Items) == 0 {
		return
	}
	id := optID{ballot: m.Ballot, seq: m.Instance}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.optSeen[id]; dup {
		return
	}
	if len(l.optSeen) >= 8192 {
		// The dedup window is best-effort (duplicates only arise from
		// network-level replays, and the speculation layer dedups by
		// request id anyway): reset rather than grow without bound.
		l.optSeen = make(map[optID]struct{})
	}
	l.optSeen[id] = struct{}{}
	l.optLog = append(l.optLog, b)
	l.optNext++
	l.cond.Broadcast()
}

// trimOptLocked drops optimistic batches every optimistic cursor has
// passed.
func (l *Learner) trimOptLocked() {
	min := l.optNext
	for _, c := range l.optCursors {
		if c.pos < min {
			min = c.pos
		}
	}
	if min-l.optBase < uint64(l.cfg.TrimThreshold) {
		return
	}
	drop := min - l.optBase
	rest := make([]*Batch, len(l.optLog)-int(drop))
	copy(rest, l.optLog[drop:])
	l.optLog = rest
	l.optBase = min
}

// gapLoop requests retransmission when the frontier stalls while later
// decisions are already present (a lost Decision frame).
func (l *Learner) gapLoop() {
	ticker := time.NewTicker(l.cfg.GapTimeout)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopGap:
			return
		case <-ticker.C:
		}
		l.mu.Lock()
		stalled := l.frontier == l.lastFrontier && len(l.ooo) > 0
		l.lastFrontier = l.frontier
		var from, to uint64
		if stalled {
			from = l.frontier
			to = from
			for inst := range l.ooo {
				if inst > to {
					to = inst
				}
			}
		}
		l.mu.Unlock()
		if !stalled {
			continue
		}
		l.gapStalls.Add(1)
		l.cfg.Journal.Emit(obs.EvLearnerGap, from, to-from)
		m := &message{
			Type:     msgLearnReq,
			Group:    l.cfg.GroupID,
			Instance: from,
			Instance2: Instance2{
				To: to,
			},
			Addr: l.cfg.Addr,
		}
		frame := encodeMessage(m)
		for _, coord := range l.cfg.Coordinators {
			_ = l.cfg.Transport.Send(coord, frame)
		}
	}
}

// trimChunk amortises floor-gated trims: the prefix copy runs once per
// chunk of passed batches, not once per delivery.
const trimChunk = 64

// trimLocked drops delivered log entries below the low-water mark: the
// slowest registered cursor, further clamped to the retain floor (the
// stable checkpoint) when one is set. Without a floor the fixed
// TrimThreshold count drives compaction (the pre-checkpoint behavior);
// with one, the floor is the driver — batches at or above it are kept
// for peer catch-up regardless of cursor progress, batches below it go
// as soon as every cursor has passed, in trimChunk steps (or
// immediately once the threshold cap is hit).
func (l *Learner) trimLocked() {
	low := l.frontier
	for _, c := range l.cursors {
		if c.pos < low {
			low = c.pos
		}
	}
	if l.floorSet && l.floor < low {
		low = l.floor
	}
	drop := low - l.base
	if drop == 0 {
		return
	}
	if l.floorSet {
		if drop < trimChunk && l.frontier-l.base < uint64(l.cfg.TrimThreshold) {
			return
		}
	} else if drop < uint64(l.cfg.TrimThreshold) {
		return
	}
	// Copy the tail so the dropped prefix becomes collectable.
	rest := make([]*Batch, len(l.log)-int(drop))
	copy(rest, l.log[drop:])
	l.log = rest
	l.base = low
}

// SetRetainFloor enables checkpoint-gated retention and (monotonically)
// advances the floor: decided batches at or above inst stay retained
// for peer catch-up even after every cursor passed them, batches below
// become trimmable immediately. The checkpoint subsystem calls it with
// 0 at replica start (retain everything until the first checkpoint)
// and with the stable checkpoint's next instance after each snapshot.
func (l *Learner) SetRetainFloor(inst uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.floorSet = true
	if inst > l.floor {
		l.floor = inst
	}
	l.trimLocked()
}

// Replay injects one decided value fetched from a peer into the
// learner's own endpoint as an ordinary decision frame (replica
// recovery): it takes the normal delivery path, so values beyond the
// live frontier are deduplicated and holes heal via gap retransmission.
func (l *Learner) Replay(instance uint64, value []byte) {
	// A frame lost here is a hole like any other.
	_ = l.cfg.Transport.Send(l.cfg.Addr, NewDecisionFrame(l.cfg.GroupID, instance, value))
}

// Base returns the oldest retained instance (tests, diagnostics).
func (l *Learner) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// RetainedLen returns the number of retained decided batches (tests,
// diagnostics — the learner-memory bound the retention policy enforces).
func (l *Learner) RetainedLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.log)
}

// RetainedValues re-encodes the retained decided batches from
// instance `from` on, for peer catch-up: start is the first returned
// instance (> from when the prefix was already trimmed — the caller
// then detects the hole and retries against a newer checkpoint).
// Only the pointer copy runs under the learner lock; the encoding of
// a possibly checkpoint-interval-sized suffix happens outside it, so
// serving a recovering peer never stalls live delivery.
func (l *Learner) RetainedValues(from uint64) (values [][]byte, start uint64) {
	l.mu.Lock()
	start = from
	if start < l.base {
		start = l.base
	}
	if start >= l.frontier {
		l.mu.Unlock()
		return nil, start
	}
	batches := make([]*Batch, l.frontier-start)
	copy(batches, l.log[start-l.base:l.frontier-l.base])
	l.mu.Unlock()
	// Decided batches are immutable once appended; encode lock-free.
	values = make([][]byte, len(batches))
	for i, b := range batches {
		values[i] = EncodeBatch(b)
	}
	return values, start
}

// Cursor is an independent ordered reader over a learner's log.
type Cursor struct {
	l   *Learner
	pos uint64
}

// Next blocks until the next batch is decided and returns it along with
// its instance id. ok is false after the learner closes and the cursor
// has drained every retained batch.
func (c *Cursor) Next() (b *Batch, instance uint64, ok bool) {
	l := c.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for c.pos >= l.frontier && !l.closed {
		l.cond.Wait()
	}
	if c.pos >= l.frontier {
		return nil, 0, false
	}
	b = l.log[c.pos-l.base]
	instance = c.pos
	c.pos++
	l.trimLocked()
	return b, instance, true
}

// TryNext is the non-blocking variant of Next; ready reports whether a
// batch was available.
func (c *Cursor) TryNext() (b *Batch, instance uint64, ready bool) {
	l := c.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.pos >= l.frontier {
		return nil, 0, false
	}
	b = l.log[c.pos-l.base]
	instance = c.pos
	c.pos++
	l.trimLocked()
	return b, instance, true
}

// NewOptCursor returns an independent reader over the optimistic
// stream, positioned at the oldest retained optimistic batch. Requires
// LearnerConfig.Optimistic.
func (l *Learner) NewOptCursor() *OptCursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &OptCursor{l: l, pos: l.optBase}
	l.optCursors = append(l.optCursors, c)
	return c
}

// OptCursor is an independent reader over a learner's optimistic
// (pre-consensus) stream, in arrival order.
type OptCursor struct {
	l   *Learner
	pos uint64
}

// Next blocks until the next optimistic batch arrives; ok is false
// once the learner closes and the cursor has drained the stream.
func (c *OptCursor) Next() (b *Batch, ok bool) {
	l := c.l
	l.mu.Lock()
	defer l.mu.Unlock()
	for c.pos >= l.optNext && !l.closed {
		l.cond.Wait()
	}
	if c.pos >= l.optNext {
		return nil, false
	}
	b = l.optLog[c.pos-l.optBase]
	c.pos++
	l.trimOptLocked()
	return b, true
}

// TryNext is the non-blocking variant of Next.
func (c *OptCursor) TryNext() (b *Batch, ready bool) {
	l := c.l
	l.mu.Lock()
	defer l.mu.Unlock()
	if c.pos >= l.optNext {
		return nil, false
	}
	b = l.optLog[c.pos-l.optBase]
	c.pos++
	l.trimOptLocked()
	return b, true
}

// NextEither blocks until the decided cursor or the optimistic cursor
// has a batch and returns one, preferring the decided stream (the
// speculation layer reconciles before it speculates further, keeping
// its speculation window short). A nil oc waits for the decided stream
// only (the caller's speculation window is full). ok is false once the
// learner closes and BOTH cursors have drained their retained batches.
// This is the single-consumer hand-off the optimistic replica's driver
// loop runs on: one goroutine owns both cursors, so admission and
// reconciliation interleave in one well-defined order.
func (l *Learner) NextEither(dc *Cursor, oc *OptCursor) (b *Batch, instance uint64, decided bool, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if dc.pos < l.frontier {
			b = l.log[dc.pos-l.base]
			instance = dc.pos
			dc.pos++
			l.trimLocked()
			return b, instance, true, true
		}
		if oc != nil && oc.pos < l.optNext {
			b = l.optLog[oc.pos-l.optBase]
			oc.pos++
			l.trimOptLocked()
			return b, 0, false, true
		}
		if l.closed {
			return nil, 0, false, false
		}
		l.cond.Wait()
	}
}
