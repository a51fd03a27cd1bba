// Package checkpoint implements coordinated checkpoints, stable-log
// truncation and replica state transfer for the parallel replicas:
// the subsystem that lets a replica crash, restart, and rejoin — or a
// fresh replica join — without replaying the whole history.
//
// # Why checkpoints must ride a barrier
//
// The paper's correctness argument (§III-§IV) assumes replicas execute
// forever; a snapshot of a PARALLEL replica is only meaningful at a
// point where every worker thread agrees on the log prefix it has
// applied. The subsystem therefore never stops the world from outside:
// every Interval decided commands the delivery pump injects a quiesce
// marker (sched.Engine.SubmitMarker) into the SAME ordered admission
// stream the commands ride. The marker is a global-barrier token — all
// workers rendezvous at it exactly like at a Global command — so when
// the snapshot closure runs, every command decided before the marker
// has executed and nothing decided after it has started. Because every
// replica counts the same decided stream with the same interval, all
// replicas snapshot at the SAME log position, and because service
// snapshots are deterministic (command.Snapshotter), replicas holding
// the same prefix produce byte-identical snapshots — the checkpoint is
// keyed by (instance, fingerprint) and the fingerprint doubles as a
// cross-replica state check.
//
// Under optimistic execution the engine barrier is not sufficient: the
// speculative overlay may contain effects of commands consensus has
// not sanctioned. But speculative writes live as UNCOMMITTED versions
// in the service's multi-version stores (internal/mvstore), and
// Snapshot reads only committed versions — by construction exactly the
// order-confirmed prefix — so the optimistic executor snapshots
// without any quiesce at all, and a ghost (an optimistically
// delivered, never-decided value) can never leak into a snapshot.
//
// # Stable checkpoints and log truncation
//
// A checkpoint at instance I makes the decided log below I dead weight:
// recovery restores the snapshot and replays only [I, frontier). The
// paxos learner therefore gates trimming on the low-water mark
// min(slowest cursor, stable checkpoint) — SetRetainFloor — instead of
// the blind TrimThreshold count, so learner memory is bounded by the
// checkpoint interval and the retained suffix is always sufficient to
// catch a peer up from the newest snapshot.
//
// # Recovery and state transfer
//
// A restarted (or freshly added) replica fetches the newest checkpoint
// plus the retained decided suffix from any live peer (Fetch / Server,
// new catch-up messages over the ordinary transport), restores the
// service, seeds its own checkpoint store (so it can serve peers in
// turn), starts its learner AT the checkpoint instance and replays the
// suffix through the normal delivery path. Holes between the fetched
// suffix and the live stream are healed by the learner's existing
// gap-retransmission machinery. The at-most-once dedup window is NOT
// part of the snapshot: it is already per-replica best-effort (bounded
// by the dedup window on every replica), and a recovered replica
// simply behaves like one whose window rolled over.
package checkpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Config enables and sizes coordinated checkpoints.
type Config struct {
	// Interval is the number of decided commands between checkpoints;
	// zero (or negative) disables the subsystem.
	Interval int
	// Retain is how many checkpoints the in-memory store keeps
	// (recovery always serves the newest; older ones are kept briefly
	// so an in-flight fetch is not invalidated by a concurrent
	// checkpoint). Default 2.
	Retain int
}

// Enabled reports whether checkpointing is on.
func (c Config) Enabled() bool { return c.Interval > 0 }

func (c Config) withDefaults() Config {
	if c.Retain <= 0 {
		c.Retain = 2
	}
	return c
}

// Checkpoint is one coordinated snapshot of a replica's service state.
type Checkpoint struct {
	// Instance is the checkpoint's log position: the next decided
	// instance to apply after restoring State. Everything below it is
	// folded into the snapshot.
	Instance uint64
	// Commands is the number of decided commands folded into State
	// (diagnostics and recovery accounting).
	Commands uint64
	// Fingerprint is Fingerprint(State): replicas snapshotting the same
	// prefix must agree on it byte for byte.
	Fingerprint uint64
	// State is the service snapshot (command.Snapshotter encoding).
	State []byte
}

// Fingerprint folds a snapshot into the checkpoint key's fingerprint
// half (FNV-1a over the deterministic snapshot bytes).
func Fingerprint(state []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range state {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Store retains a replica's newest checkpoints, keyed by (instance,
// fingerprint). It is safe for concurrent use (the snapshot closure
// writes from a worker thread, the state-transfer server reads from
// its own goroutine).
type Store struct {
	mu     sync.Mutex
	retain int
	cps    []Checkpoint // ascending instance order
}

// NewStore creates a checkpoint store keeping the newest retain
// checkpoints (minimum 1).
func NewStore(retain int) *Store {
	if retain < 1 {
		retain = 1
	}
	return &Store{retain: retain}
}

// Put records a checkpoint, dropping the oldest beyond the retention
// count. Stale positions (at or below the newest stored instance) are
// ignored — recovery seeds the store with a fetched checkpoint and a
// concurrent marker may already have produced a newer one.
func (s *Store) Put(cp Checkpoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.cps); n > 0 && cp.Instance <= s.cps[n-1].Instance {
		return
	}
	s.cps = append(s.cps, cp)
	if len(s.cps) > s.retain {
		drop := len(s.cps) - s.retain
		rest := make([]Checkpoint, s.retain)
		copy(rest, s.cps[drop:])
		s.cps = rest
	}
}

// Latest returns the newest checkpoint.
func (s *Store) Latest() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cps) == 0 {
		return Checkpoint{}, false
	}
	return s.cps[len(s.cps)-1], true
}

// Stable returns the newest checkpoint's instance — the learner's
// retain floor — or 0 when no checkpoint exists yet.
func (s *Store) Stable() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cps) == 0 {
		return 0
	}
	return s.cps[len(s.cps)-1].Instance
}

// Len returns the number of retained checkpoints (tests).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cps)
}

// Counters is a snapshot of one replica's checkpoint statistics.
type Counters struct {
	// Checkpoints taken since start.
	Checkpoints uint64
	// LastBytes / MaxBytes size the snapshots.
	LastBytes uint64
	MaxBytes  uint64
	// LastPauseNs / MaxPauseNs / TotalPauseNs measure the quiesce
	// pause: the time the worker pool stood still while the snapshot
	// was taken.
	LastPauseNs  uint64
	MaxPauseNs   uint64
	TotalPauseNs uint64
	// Restores counts recoveries (snapshot restore + suffix replay)
	// this replica performed at start; RestoredCommands is the decided
	// command count folded into the restored snapshot.
	Restores         uint64
	RestoredCommands uint64
}

// MeanPause returns the average quiesce pause.
func (c Counters) MeanPause() time.Duration {
	if c.Checkpoints == 0 {
		return 0
	}
	return time.Duration(c.TotalPauseNs / c.Checkpoints)
}

// MaxPause returns the longest quiesce pause.
func (c Counters) MaxPause() time.Duration { return time.Duration(c.MaxPauseNs) }

// Add folds another replica's counters into c: counts sum, maxima take
// the max, LastBytes keeps the largest last snapshot.
func (c *Counters) Add(o Counters) {
	c.Checkpoints += o.Checkpoints
	c.TotalPauseNs += o.TotalPauseNs
	c.Restores += o.Restores
	c.RestoredCommands += o.RestoredCommands
	if o.LastBytes > c.LastBytes {
		c.LastBytes = o.LastBytes
	}
	if o.MaxBytes > c.MaxBytes {
		c.MaxBytes = o.MaxBytes
	}
	if o.LastPauseNs > c.LastPauseNs {
		c.LastPauseNs = o.LastPauseNs
	}
	if o.MaxPauseNs > c.MaxPauseNs {
		c.MaxPauseNs = o.MaxPauseNs
	}
}

func (c Counters) String() string {
	return fmt.Sprintf("checkpoints %d (last %dB, pause mean %v max %v), restores %d (%d cmds restored)",
		c.Checkpoints, c.LastBytes, c.MeanPause().Round(time.Microsecond),
		c.MaxPause().Round(time.Microsecond), c.Restores, c.RestoredCommands)
}

// Driver is one replica's checkpoint state: it counts the decided
// command stream, decides when a checkpoint is due, and builds the
// quiesce-marker closures that take the snapshots. Tick/Due/Marker are
// called from the replica's single delivery goroutine; the returned
// marker closure runs on a worker thread (engine barrier) or on the
// delivery goroutine itself (optimistic quiesce), so the counters are
// atomics.
type Driver struct {
	cfg      Config
	store    *Store
	snapshot func() ([]byte, bool) // quiesced-state snapshot; false = unavailable
	onStable func(instance uint64) // typically paxos.Learner.SetRetainFloor

	commands uint64 // decided commands applied (delivery goroutine only)
	nextAt   uint64 // threshold for the next checkpoint

	checkpoints  atomic.Uint64
	lastBytes    atomic.Uint64
	maxBytes     atomic.Uint64
	lastPauseNs  atomic.Uint64
	maxPauseNs   atomic.Uint64
	totalPauseNs atomic.Uint64
	restores     atomic.Uint64
	restoredCmds atomic.Uint64
}

// NewDriver builds a replica's checkpoint driver. snapshot serializes
// the service at the quiesce point (returning false when the replica
// is shutting down); onStable, when non-nil, is told each new stable
// checkpoint instance.
func NewDriver(cfg Config, store *Store, snapshot func() ([]byte, bool), onStable func(uint64)) *Driver {
	cfg = cfg.withDefaults()
	return &Driver{
		cfg:      cfg,
		store:    store,
		snapshot: snapshot,
		onStable: onStable,
		nextAt:   uint64(cfg.Interval),
	}
}

// Store returns the driver's checkpoint store.
func (d *Driver) Store() *Store { return d.store }

// Tick records n decided commands applied by the delivery pump.
func (d *Driver) Tick(n int) {
	if n > 0 {
		d.commands += uint64(n)
	}
}

// Due reports that a checkpoint interval boundary has been crossed;
// the caller takes it at its next quiesce point via Marker.
func (d *Driver) Due() bool { return d.commands >= d.nextAt }

// Marker arms the next interval and returns the quiesce closure for a
// checkpoint at log position nextInstance (the next decided instance
// to apply after the snapshot). Submit it on the engine's barrier
// (sched.Engine.SubmitMarker) or run it at an equivalent quiesce
// point.
func (d *Driver) Marker(nextInstance uint64) func() {
	commands := d.commands
	// Re-arm a full interval past the marker: a burst that crossed
	// several boundaries yields one checkpoint, evenly spaced onwards
	// (still deterministic — every replica counts the same stream).
	d.nextAt = commands + uint64(d.cfg.Interval)
	return func() {
		t0 := time.Now()
		state, ok := d.snapshot()
		if !ok {
			return
		}
		pause := time.Since(t0)
		d.store.Put(Checkpoint{
			Instance:    nextInstance,
			Commands:    commands,
			Fingerprint: Fingerprint(state),
			State:       state,
		})
		d.checkpoints.Add(1)
		d.lastBytes.Store(uint64(len(state)))
		maxU64(&d.maxBytes, uint64(len(state)))
		d.lastPauseNs.Store(uint64(pause))
		maxU64(&d.maxPauseNs, uint64(pause))
		d.totalPauseNs.Add(uint64(pause))
		if d.onStable != nil {
			d.onStable(nextInstance)
		}
	}
}

// RecordRestore seeds the driver after a recovery: the command count
// resumes at the restored checkpoint's (so intervals keep their
// positions in the global stream) and the restore is counted.
func (d *Driver) RecordRestore(cp *Checkpoint) {
	d.commands = cp.Commands
	d.nextAt = cp.Commands + uint64(d.cfg.Interval)
	d.restores.Add(1)
	d.restoredCmds.Add(cp.Commands)
}

// Counters returns a snapshot of the checkpoint statistics.
func (d *Driver) Counters() Counters {
	return Counters{
		Checkpoints:      d.checkpoints.Load(),
		LastBytes:        d.lastBytes.Load(),
		MaxBytes:         d.maxBytes.Load(),
		LastPauseNs:      d.lastPauseNs.Load(),
		MaxPauseNs:       d.maxPauseNs.Load(),
		TotalPauseNs:     d.totalPauseNs.Load(),
		Restores:         d.restores.Load(),
		RestoredCommands: d.restoredCmds.Load(),
	}
}

func maxU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
