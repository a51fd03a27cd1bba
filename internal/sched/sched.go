// Package sched implements the scheduling engines behind the sP-SMR
// and optimistic replicas (paper §VI-B). Both engines admit the same
// ordered command stream — one command at a time (Submit) or one
// decided batch at a time (SubmitBatch) — and dispatch independent
// commands onto a pool of worker threads while dependent commands
// execute in admission order:
//
//   - The scan engine (KindScan) is the paper's sP-SMR scheduler: a
//     single scheduler thread tracks conflicts against the live
//     (executing or parked) command set using the service's C-Dep and
//     hands ready commands to a shared worker pool. Being one thread,
//     it is the architectural bottleneck the paper measures — it
//     saturates a core while workers idle (Figures 3, 5 and 7).
//   - The index engine (KindIndex) removes that thread: conflict
//     resolution is precompiled into class-to-worker routes
//     (cdep.Compiled.Route, "early scheduling") plus a hash-sharded
//     per-key conflict index, so admission is O(1) routing straight
//     into per-worker ingress queues. Per-key reader sets let same-key
//     read-only commands run concurrently behind the key's last
//     writer, batched admission amortises shard and ingress locks over
//     a decided batch, and idle workers steal non-keyed work from the
//     longest queue (keyed chains never migrate). See index.go.
//
// Both engines route MULTI-KEY commands (cdep.RouteMultiKey, key sets
// instead of a single key) without a global barrier: the scan engine
// chains the command as a writer of every key it touches; the index
// engine enqueues one token on every owner worker in sorted-key order
// and runs a deposit-and-continue handoff — each owner atomically
// deposits "arrived" at its token and keeps draining unrelated work,
// and the last depositor executes, so an N-key command no longer idles
// N−1 workers. The last deposit is a 2PL lock point over the per-key
// FIFOs (see index.go for the safety and deadlock-freedom argument).
//
// Both engines are deterministic with respect to their input stream: a
// command waits for exactly the earlier-admitted live commands that
// conflict with it, so every pair of dependent commands executes in
// admission order and both engines produce identical outputs for the
// same ordered stream.
package sched

import (
	"fmt"
	"sync"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/dedup"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

// SchedulerKind selects the scheduling engine.
type SchedulerKind int

// Scheduling engines.
const (
	// KindScan is the paper's sP-SMR scheduler: a dedicated scheduler
	// thread tracks conflicts against the live command set at admission
	// time and hands ready commands to a shared worker pool. It is the
	// architectural bottleneck the paper measures (Figures 3, 5, 7).
	KindScan SchedulerKind = iota
	// KindIndex is the index-based early scheduler: conflict resolution
	// is precomputed at cdep.Compile time (class-to-worker-set routes)
	// plus a hash-sharded per-key conflict index, so admission is O(1)
	// and commands flow straight into per-worker ingress queues — no
	// scheduler thread sits between delivery and execution.
	KindIndex
)

func (k SchedulerKind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindIndex:
		return "index"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(k))
	}
}

// Engine is a running scheduling engine: the scan scheduler or the
// index-based early scheduler. Submit admits commands in order (single
// producer or externally serialized producers); SubmitBatch admits one
// decided batch in order, equivalent to Submit per element but letting
// the engine amortise per-burst costs (the caller must not reuse the
// slice afterwards); Close stops the engine and waits for its
// goroutines. A producer must pick ONE of the two admission paths and
// stick to it: the index engine preserves order across them, but the
// scan engine hands each path to its scheduler over a separate
// channel, so interleaving Submit and SubmitBatch calls would lose the
// cross-path admission order (the delivery pumps always use
// SubmitBatch).
//
// SubmitMarker admits a QUIESCE MARKER: fn runs exactly once, with
// every worker thread rendezvoused at the marker — all commands
// admitted before it have completed, none admitted after it has
// started. This is how the checkpoint subsystem snapshots the service
// at one deterministic log position without stopping the engine.
// Markers ride the same global-barrier machinery as Global commands
// and are ordered with respect to the SubmitBatch stream.
type Engine interface {
	Submit(req *command.Request) bool
	SubmitBatch(reqs []*command.Request) bool
	SubmitMarker(fn func()) bool
	Close() error
}

// StartEngine launches the engine selected by cfg.Kind.
func StartEngine(cfg Config) (Engine, error) {
	switch cfg.Kind {
	case KindIndex:
		return StartIndex(cfg)
	case KindScan:
		return Start(cfg)
	default:
		return nil, fmt.Errorf("sched: unknown scheduler kind %d", int(cfg.Kind))
	}
}

// Config configures a scheduler and its worker pool.
type Config struct {
	// Kind selects the engine; the zero value is the scan scheduler.
	Kind SchedulerKind
	// Workers is the execution pool size (the scheduler thread is
	// extra, matching how the paper counts threads).
	Workers int
	// Service is the deterministic state machine.
	Service command.Service
	// Exec optionally replaces Service.Execute as the execution hook:
	// it receives the full request, so a layer above the engine (the
	// optimistic speculation executor) can thread per-request
	// bookkeeping — undo records, completion signalling — through the
	// engine's conflict-respecting scheduling. When Exec is set the
	// engines also SKIP their internal at-most-once layer (response
	// cache and in-flight duplicate filter): the hook's owner does its
	// own deduplication and may legitimately re-admit a request id it
	// rolled back, which the engine-level filter would silently swallow
	// (deadlocking a reconciler that waits for the re-execution).
	Exec func(req *command.Request) []byte
	// Compiled answers conflict queries (from the service's C-Dep).
	Compiled *cdep.Compiled
	// Transport sends responses.
	Transport transport.Transport
	// QueueBound sizes the scan engine's hand-off channel to the
	// worker pool. Default 1024 (the scheduler's own ready list is
	// unbounded). The index engine's ingress deques are unbounded and
	// ignore it (see index.go).
	QueueBound int
	// DedupWindow bounds the per-client at-most-once table. Default 512.
	DedupWindow int
	// CPU optionally meters scheduler and worker busy time.
	CPU *bench.CPUMeter
	// Trace optionally stamps sampled commands at the engine-admission
	// and execution stage boundaries (nil disables tracing at zero
	// cost on the admission fast path).
	Trace *obs.Tracer
	// Journal optionally records steal/handoff events in the flight
	// recorder.
	Journal *obs.Journal
}

// Scheduler is a running scheduler-worker engine. Feed it with Submit
// (single producer or externally serialized producers) and stop it
// with Close.
type Scheduler struct {
	cfg Config

	reqCh   chan *command.Request
	batchCh chan admission
	readyCh chan *node
	doneCh  chan *node
	stop    chan struct{}

	closeOnce sync.Once
	wg        sync.WaitGroup
}

// admission is one hand-off on the scan engine's batch path: a decided
// batch, or a quiesce marker. Sharing one channel keeps markers ordered
// with the batches around them.
type admission struct {
	reqs   []*command.Request
	marker func()
}

// node is one admitted command in the dependency graph (or a quiesce
// marker when marker is non-nil — req is nil then).
type node struct {
	req        *command.Request
	marker     func()
	waitCount  int
	dependents []*node
	output     []byte

	keyed  bool
	writer bool
	key    uint64
	mkeys  []uint64 // multi-key commands: sorted key set (keyed false)
}

// requestID keys the in-flight duplicate filter.
type requestID struct {
	client, seq uint64
}

// keyState tracks the live commands touching one key: the latest
// writer plus the readers admitted since. Readers depend on the last
// writer; a new writer depends on the last writer and all readers.
type keyState struct {
	lastWriter *node
	readers    []*node
}

// Start launches the scheduler thread and the worker pool.
func Start(cfg Config) (*Scheduler, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("sched: %d workers", cfg.Workers)
	}
	if cfg.QueueBound <= 0 {
		cfg.QueueBound = 1024
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 512
	}
	if cfg.Compiled == nil {
		return nil, fmt.Errorf("sched: Compiled is required")
	}
	if cfg.Service == nil && cfg.Exec == nil {
		return nil, fmt.Errorf("sched: Service or Exec is required")
	}
	s := &Scheduler{
		cfg:     cfg,
		reqCh:   make(chan *command.Request, 4096),
		batchCh: make(chan admission, 256),
		readyCh: make(chan *node, cfg.QueueBound),
		doneCh:  make(chan *node, cfg.QueueBound),
		stop:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.schedule()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.work()
	}
	return s, nil
}

// Submit admits one command. It reports false once the scheduler is
// stopping. Commands are scheduled in Submit order.
func (s *Scheduler) Submit(req *command.Request) bool {
	select {
	case <-s.stop:
		return false
	default:
	}
	select {
	case s.reqCh <- req:
		return true
	case <-s.stop:
		return false
	}
}

// SubmitBatch admits one decided batch: a single channel hand-off to
// the scheduler thread instead of one per command, which amortises the
// producer/scheduler synchronization over a burst. The scheduler takes
// ownership of the slice. It reports false once the scheduler is
// stopping.
func (s *Scheduler) SubmitBatch(reqs []*command.Request) bool {
	if len(reqs) == 0 {
		return true
	}
	select {
	case <-s.stop:
		return false
	default:
	}
	select {
	case s.batchCh <- admission{reqs: reqs}:
		return true
	case <-s.stop:
		return false
	}
}

// SubmitMarker admits a quiesce marker on the batch path: fn runs once
// every command admitted before it has completed, alone, before
// anything admitted after it starts. It reports false once the
// scheduler is stopping.
func (s *Scheduler) SubmitMarker(fn func()) bool {
	if fn == nil {
		return true
	}
	select {
	case <-s.stop:
		return false
	default:
	}
	select {
	case s.batchCh <- admission{marker: fn}:
		return true
	case <-s.stop:
		return false
	}
}

// Close drains nothing: it stops the engine and waits for the
// goroutines to exit.
func (s *Scheduler) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
	return nil
}

// schedule is the single scheduler thread: conflict tracking,
// dependency bookkeeping, dispatch, and response dedup.
func (s *Scheduler) schedule() {
	defer s.wg.Done()
	defer close(s.readyCh)

	cpu := s.cfg.CPU.Role("scheduler")
	var (
		live        = make(map[*node]struct{})
		inflight    = make(map[requestID]struct{})
		keys        = make(map[uint64]*keyState)
		lastBarrier *node
		table       = dedup.NewTable(s.cfg.DedupWindow)
		ready       []*node
	)

	releaseKey := func(n *node, key uint64) {
		ks, ok := keys[key]
		if !ok {
			return
		}
		if n.writer {
			if ks.lastWriter == n {
				ks.lastWriter = nil
			}
		} else {
			for i, rd := range ks.readers {
				if rd == n {
					ks.readers = append(ks.readers[:i], ks.readers[i+1:]...)
					break
				}
			}
		}
		if ks.lastWriter == nil && len(ks.readers) == 0 {
			delete(keys, key)
		}
	}

	release := func(n *node) {
		delete(live, n)
		if n.req != nil && s.cfg.Exec == nil {
			delete(inflight, requestID{client: n.req.Client, seq: n.req.Seq})
			table.Record(n.req.Client, n.req.Seq, n.output)
		}
		if lastBarrier == n {
			lastBarrier = nil
		}
		if n.keyed {
			releaseKey(n, n.key)
		}
		for _, key := range n.mkeys {
			releaseKey(n, key)
		}
		for _, d := range n.dependents {
			d.waitCount--
			if d.waitCount == 0 {
				ready = append(ready, d)
			}
		}
		n.dependents = nil
	}

	admit := func(req *command.Request) {
		s.cfg.Trace.StampID(obs.StageEngineAdmit, req.Client, req.Seq)
		// With an external execution hook the at-most-once layer moves
		// to the hook's owner (see Config.Exec).
		if s.cfg.Exec == nil {
			if out, dup := table.Lookup(req.Client, req.Seq); dup {
				s.respond(req, out)
				return
			}
			// Drop retransmissions whose original is still live: without
			// this, a latency spike past the client retry interval admits
			// duplicate nodes, which lengthens the queue, which raises
			// latency, which triggers more retransmissions — a metastable
			// collapse the system never exits. The client is answered
			// when the original completes (or by the dedup table on its
			// next retry after that).
			id := requestID{client: req.Client, seq: req.Seq}
			if _, dup := inflight[id]; dup {
				return
			}
			inflight[id] = struct{}{}
		}
		n := &node{req: req}
		addDep := func(dep *node) {
			if dep == nil {
				return
			}
			if _, ok := live[dep]; !ok {
				return
			}
			dep.dependents = append(dep.dependents, n)
			n.waitCount++
		}

		// barrier makes n wait for every live command and run alone
		// (the paper's scheduler "waits for the worker threads to
		// finish their ongoing work").
		barrier := func() {
			for m := range live {
				addDep(m)
			}
			lastBarrier = n
		}
		// writerOn chains n as a writer of one key: behind the key's
		// last writer and the readers admitted since.
		writerOn := func(key uint64) {
			ks := keys[key]
			if ks == nil {
				ks = &keyState{}
				keys[key] = ks
			}
			addDep(ks.lastWriter)
			for _, rd := range ks.readers {
				addDep(rd)
			}
			ks.lastWriter = n
			ks.readers = nil
		}
		// readerOn joins n to one key's reader list: behind the key's
		// last writer only, concurrent with the other readers.
		readerOn := func(key uint64) {
			ks := keys[key]
			if ks == nil {
				ks = &keyState{}
				keys[key] = ks
			}
			addDep(ks.lastWriter)
			ks.readers = append(ks.readers, n)
		}

		switch class := s.cfg.Compiled.Class(req.Cmd); {
		case s.cfg.Compiled.GlobalConflict(req.Cmd):
			barrier()
		case class == cdep.MultiKeyed:
			mkeys, ok := s.cfg.Compiled.KeySet(req.Cmd, req.Input)
			if !ok {
				// Undeterminable key set may touch any object:
				// serialize like a global command (matching the index
				// engine's keyless fallback).
				barrier()
				break
			}
			addDep(lastBarrier)
			n.mkeys = mkeys
			// Read-only multi-key commands (snapshot reads) join every
			// touched key's reader list: they wait only for the keys'
			// last writers and run concurrently with each other, while
			// the next writer of any touched key waits for them.
			n.writer = !s.cfg.Compiled.Route(req.Cmd).ReadOnly
			for _, key := range mkeys {
				if n.writer {
					writerOn(key)
				} else {
					readerOn(key)
				}
			}
		case class == cdep.Keyed:
			key, ok := s.cfg.Compiled.Key(req.Cmd, req.Input)
			if !ok {
				// Keyless invocation of a keyed command: synchronous
				// mode, like the index engine.
				barrier()
				break
			}
			addDep(lastBarrier)
			n.keyed = true
			n.key = key
			// The compiled route's read-only bit decides reader vs
			// writer (shared with the index engine's reader sets,
			// so the two engines cannot drift): a writer either
			// self-conflicts or conflicts with another non-writer.
			n.writer = !s.cfg.Compiled.Route(req.Cmd).ReadOnly
			if n.writer {
				writerOn(key)
			} else {
				readerOn(key)
			}
		default:
			addDep(lastBarrier)
		}
		live[n] = struct{}{}
		if n.waitCount == 0 {
			ready = append(ready, n)
		}
	}

	// admitMarker admits a quiesce marker: a barrier node carrying a
	// closure instead of a command — it waits for every live command,
	// runs alone, and everything admitted later waits for it.
	admitMarker := func(fn func()) {
		n := &node{marker: fn}
		for m := range live {
			m.dependents = append(m.dependents, n)
			n.waitCount++
		}
		lastBarrier = n
		live[n] = struct{}{}
		if n.waitCount == 0 {
			ready = append(ready, n)
		}
	}

	// admitAdmission dispatches one batch-path hand-off.
	admitAdmission := func(adm admission) {
		if adm.marker != nil {
			admitMarker(adm.marker)
			return
		}
		for _, req := range adm.reqs {
			admit(req)
		}
	}

	// popReady removes the head of the ready list.
	popReady := func() {
		ready[0] = nil
		ready = ready[1:]
		if len(ready) == 0 {
			ready = nil
		}
	}

	for {
		// Block for one event; the hand-off arm is enabled only when
		// the ready list is non-empty (a nil channel disables it).
		var (
			handoff chan *node
			head    *node
		)
		if len(ready) > 0 {
			handoff = s.readyCh
			head = ready[0]
		}
		select {
		case req := <-s.reqCh:
			t0 := time.Now()
			admit(req)
			cpu.Add(time.Since(t0))
		case adm := <-s.batchCh:
			t0 := time.Now()
			admitAdmission(adm)
			cpu.Add(time.Since(t0))
		case n := <-s.doneCh:
			t0 := time.Now()
			release(n)
			cpu.Add(time.Since(t0))
		case handoff <- head:
			t0 := time.Now()
			popReady()
			cpu.Add(time.Since(t0))
		case <-s.stop:
			return
		}
		// Opportunistic drain: handle everything already queued
		// without further blocking. This amortises scheduler wake-ups
		// across bursts — a single-thread scheduler lives or dies by
		// its per-command constant.
		t0 := time.Now()
		for {
			progress := false
			select {
			case req := <-s.reqCh:
				if req != nil {
					admit(req)
					progress = true
				}
			default:
			}
			select {
			case adm := <-s.batchCh:
				admitAdmission(adm)
				progress = true
			default:
			}
			select {
			case n := <-s.doneCh:
				release(n)
				progress = true
			default:
			}
			for len(ready) > 0 {
				pushed := false
				select {
				case s.readyCh <- ready[0]:
					popReady()
					progress = true
					pushed = true
				default:
				}
				if !pushed {
					break
				}
			}
			if !progress {
				break
			}
		}
		cpu.Add(time.Since(t0))
	}
}

// work is one pool worker: execute ready commands, respond, report
// completion.
func (s *Scheduler) work() {
	defer s.wg.Done()
	cpu := s.cfg.CPU.Role("worker")
	for n := range s.readyCh {
		t0 := time.Now()
		if n.marker != nil {
			// Quiesce marker: every command admitted before it has
			// completed (it is a barrier node), so the closure observes
			// the service at one deterministic log position.
			n.marker()
		} else {
			s.cfg.Trace.StampID(obs.StageExecStart, n.req.Client, n.req.Seq)
			n.output = s.exec(n.req)
			s.cfg.Trace.StampID(obs.StageExecEnd, n.req.Client, n.req.Seq)
			s.respond(n.req, n.output)
		}
		cpu.Add(time.Since(t0))
		select {
		case s.doneCh <- n:
		case <-s.stop:
			return
		}
	}
}

func (s *Scheduler) respond(req *command.Request, output []byte) {
	Respond(s.cfg.Transport, req, output)
}

// exec runs one request through the configured execution hook.
func (s *Scheduler) exec(req *command.Request) []byte {
	if s.cfg.Exec != nil {
		return s.cfg.Exec(req)
	}
	return s.cfg.Service.Execute(req.Cmd, req.Input)
}

// Respond sends a command's response frame to the client proxy. Both
// engines and the optimistic executor (which answers at
// order-confirmation time instead of execution time) share it so their
// wire behavior cannot drift apart.
func Respond(tr transport.Transport, req *command.Request, output []byte) {
	if req.Reply == "" {
		return
	}
	frame := command.AppendResponse(nil, &command.Response{
		Client: req.Client,
		Seq:    req.Seq,
		Output: output,
	})
	_ = tr.Send(req.Reply, frame)
}
