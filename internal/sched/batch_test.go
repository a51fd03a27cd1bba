package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/transport"
)

// startEngine launches either engine over a fresh in-process network.
func startEngine(t *testing.T, kind SchedulerKind, workers int, svc command.Service,
	opts ...cdep.Option) (Engine, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(1)
	compiled, err := cdep.Compile(spec(), workers, opts...)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	e, err := StartEngine(Config{
		Kind:      kind,
		Workers:   workers,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
	})
	if err != nil {
		t.Fatalf("StartEngine(%v): %v", kind, err)
	}
	t.Cleanup(func() { _ = e.Close(); _ = net.Close() })
	return e, net
}

// SubmitBatch must admit in order across chunk boundaries and flush
// buffered work before a mid-batch barrier, on both engines.
func TestSubmitBatchOrderAndBarrier(t *testing.T) {
	for _, kind := range []SchedulerKind{KindScan, KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			compiled, _ := cdep.Compile(spec(), 4)
			svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled}
			e, _ := startEngine(t, kind, 4, svc)

			// One batch: same-key writes, a mid-batch barrier, more
			// writes and pings. Key 7 writes must keep batch order;
			// nothing may cross the barrier (seq 100).
			var reqs []*command.Request
			for i := uint64(1); i <= 20; i++ {
				reqs = append(reqs, &command.Request{Client: 1, Seq: i, Cmd: cmdWrite, Input: input(7, i)})
			}
			reqs = append(reqs, &command.Request{Client: 1, Seq: 100, Cmd: cmdGlobal, Input: input(999, 100)})
			for i := uint64(201); i <= 220; i++ {
				cmd := cmdWrite
				if i%3 == 0 {
					cmd = cmdPing
				}
				reqs = append(reqs, &command.Request{Client: 1, Seq: i, Cmd: cmd, Input: input(i%5, i)})
			}
			if !e.SubmitBatch(reqs) {
				t.Fatal("SubmitBatch failed")
			}
			waitExecuted(t, svc, len(reqs))
			if svc.violation.Load() {
				t.Fatal("conflicting commands overlapped")
			}
			svc.mu.Lock()
			defer svc.mu.Unlock()
			barrierPos := -1
			key7Prev := uint64(0)
			for i, seq := range svc.order {
				if seq == 100 {
					barrierPos = i
				}
				if seq <= 20 { // key-7 write
					if seq <= key7Prev {
						t.Fatalf("key-7 writes out of order: %v", svc.order)
					}
					key7Prev = seq
				}
			}
			for i, seq := range svc.order {
				if seq < 100 && i > barrierPos {
					t.Fatalf("pre-barrier command %d executed after the barrier", seq)
				}
				if seq > 200 && i < barrierPos {
					t.Fatalf("post-barrier command %d executed before the barrier", seq)
				}
			}
		})
	}
}

// Reader sets: same-key reads from distinct clients must execute
// concurrently on the index engine (the scan engine's behavior), and
// a writer admitted after them must wait for the whole reader set.
func TestIndexReaderSetsRunConcurrently(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 8)
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled, slow: 5 * time.Millisecond}
	e, _ := startEngine(t, KindIndex, 8, svc)

	start := time.Now()
	for i := uint64(1); i <= 8; i++ {
		e.Submit(&command.Request{Client: i, Seq: 1, Cmd: cmdRead, Input: input(5, i)})
	}
	waitExecuted(t, svc, 8)
	// 8 x 5ms serialized would be 40ms; concurrent readers park
	// together and finish in ~5-10ms even on one CPU.
	if elapsed := time.Since(start); elapsed > 30*time.Millisecond {
		t.Fatalf("same-key reads apparently serialized: %v", elapsed)
	}
	if svc.violation.Load() {
		t.Fatal("conflict violation")
	}

	// A writer behind the reader set, then a read behind the writer:
	// strict admission-order semantics per key.
	e.Submit(&command.Request{Client: 100, Seq: 1, Cmd: cmdWrite, Input: input(5, 50)})
	e.Submit(&command.Request{Client: 101, Seq: 1, Cmd: cmdRead, Input: input(5, 51)})
	waitExecuted(t, svc, 10)
	if svc.violation.Load() {
		t.Fatal("writer overlapped the reader set")
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.order[8] != 50 || svc.order[9] != 51 {
		t.Fatalf("tail order = %v, want [... 50 51]", svc.order[8:])
	}
}

// Work stealing: free commands confined to one worker's queue by a
// restricted worker set must be picked up by the idle workers.
func TestIndexWorkStealing(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 4, cdep.WithWorkerSet(cmdPing, 0))
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled, slow: 5 * time.Millisecond}
	e, _ := startEngine(t, KindIndex, 4, svc, cdep.WithWorkerSet(cmdPing, 0))

	start := time.Now()
	const n = 32
	var reqs []*command.Request
	for i := uint64(1); i <= n; i++ {
		reqs = append(reqs, &command.Request{Client: 1, Seq: i, Cmd: cmdPing, Input: input(1000+i, i)})
	}
	if !e.SubmitBatch(reqs) {
		t.Fatal("SubmitBatch failed")
	}
	waitExecuted(t, svc, n)
	// 32 x 5ms on the single routed worker would be 160ms; stealing
	// spreads the backlog over 4 workers, stealBatch commands at a
	// time (sleeps park, 1 CPU is enough).
	if elapsed := time.Since(start); elapsed > 120*time.Millisecond {
		t.Fatalf("idle workers did not steal: %v", elapsed)
	}
	if stolen, _ := EngineStats(e); stolen == 0 {
		t.Fatal("no command was counted as stolen")
	}
	if svc.violation.Load() {
		t.Fatal("conflict violation")
	}
}

// Stolen work must not cross a barrier: frees admitted after a global
// command stay behind it even when another worker is idle enough to
// steal.
func TestIndexStealRespectsBarrier(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 4, cdep.WithWorkerSet(cmdPing, 0))
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled, slow: time.Millisecond}
	e, _ := startEngine(t, KindIndex, 4, svc, cdep.WithWorkerSet(cmdPing, 0))

	var reqs []*command.Request
	for i := uint64(1); i <= 10; i++ {
		reqs = append(reqs, &command.Request{Client: 1, Seq: i, Cmd: cmdPing, Input: input(1000+i, i)})
	}
	reqs = append(reqs, &command.Request{Client: 1, Seq: 100, Cmd: cmdGlobal, Input: input(999, 100)})
	for i := uint64(201); i <= 210; i++ {
		reqs = append(reqs, &command.Request{Client: 1, Seq: i, Cmd: cmdPing, Input: input(2000+i, i)})
	}
	if !e.SubmitBatch(reqs) {
		t.Fatal("SubmitBatch failed")
	}
	waitExecuted(t, svc, 21)
	if svc.violation.Load() {
		t.Fatal("a stolen command overlapped the barrier")
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	barrierPos := -1
	for i, seq := range svc.order {
		if seq == 100 {
			barrierPos = i
		}
	}
	for i, seq := range svc.order {
		if seq < 100 && i > barrierPos {
			t.Fatalf("pre-barrier ping %d executed after the barrier", seq)
		}
		if seq > 200 && i < barrierPos {
			t.Fatalf("post-barrier ping %d executed before the barrier", seq)
		}
	}
}

// Barriers under sustained concurrent keyed load, both engines, with
// batched admission, reader sets and stealing all active: no conflict
// may overlap and every barrier must partition the stream.
func TestBarrierUnderConcurrentKeyedLoad(t *testing.T) {
	for _, kind := range []SchedulerKind{KindScan, KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			compiled, _ := cdep.Compile(spec(), 8)
			svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled}
			e, _ := startEngine(t, kind, 8, svc)

			const n = 8000
			var reqs []*command.Request
			for i := uint64(1); i <= n; i++ {
				cmd := cmdWrite
				switch {
				case i%251 == 0:
					cmd = cmdGlobal
				case i%3 == 0:
					cmd = cmdRead
				case i%11 == 0:
					cmd = cmdPing
				}
				reqs = append(reqs, &command.Request{
					Client: i % 16, Seq: i, Cmd: cmd, Input: input(i%13, i),
				})
				if len(reqs) == 100 {
					if !e.SubmitBatch(reqs) {
						t.Fatal("SubmitBatch failed")
					}
					reqs = nil
				}
			}
			if len(reqs) > 0 && !e.SubmitBatch(reqs) {
				t.Fatal("SubmitBatch failed")
			}
			waitExecuted(t, svc, n)
			if svc.violation.Load() {
				t.Fatal("conflict violation under load")
			}
			// Every global must partition the execution order: all
			// smaller seqs before it, all larger after (globals
			// conflict with everything here except nothing admitted
			// later... they are full barriers).
			svc.mu.Lock()
			defer svc.mu.Unlock()
			pos := make(map[uint64]int, len(svc.order))
			for i, seq := range svc.order {
				pos[seq] = i
			}
			for seq := uint64(251); seq <= n; seq += 251 {
				bp := pos[seq]
				for other, p := range pos {
					if other < seq && p > bp {
						t.Fatalf("seq %d executed after barrier %d", other, seq)
					}
					if other > seq && p < bp {
						t.Fatalf("seq %d executed before barrier %d", other, seq)
					}
				}
			}
		})
	}
}

// kvService is a deterministic toy store for the determinism test:
// writes set key -> seq and return the previous value, reads return
// the current value, pings echo, globals fold the whole store. The
// mutex only guards the map; ordering is the engine's job, and any
// ordering difference shows up in the outputs.
type kvService struct {
	mu    sync.Mutex
	state map[uint64]uint64
}

func (s *kvService) Execute(cmd command.ID, in []byte) []byte {
	k, _ := key(in)
	seq := uint64(0)
	if len(in) >= 16 {
		seq = uint64(in[8]) | uint64(in[9])<<8 | uint64(in[10])<<16 | uint64(in[11])<<24 |
			uint64(in[12])<<32 | uint64(in[13])<<40 | uint64(in[14])<<48 | uint64(in[15])<<56
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch cmd {
	case cmdWrite:
		prev := s.state[k]
		s.state[k] = seq
		return []byte(fmt.Sprintf("w%d", prev))
	case cmdRead:
		return []byte(fmt.Sprintf("r%d", s.state[k]))
	case cmdPing:
		return []byte(fmt.Sprintf("p%d", seq))
	default: // global: fold the store
		var sum uint64
		for k2, v := range s.state {
			sum += k2 ^ v
		}
		return []byte(fmt.Sprintf("g%d", sum))
	}
}

// The acceptance bar for the refactor: with reader sets and stealing
// enabled and batched admission on the index engine, both engines must
// produce identical outputs for the same ordered input stream.
func TestEnginesProduceIdenticalOutputs(t *testing.T) {
	const (
		n       = 4000
		workers = 8
	)
	type reqID struct{ client, seq uint64 }
	run := func(t *testing.T, kind SchedulerKind, batch int) map[reqID]string {
		net := transport.NewMemNetwork(1)
		t.Cleanup(func() { _ = net.Close() })
		compiled, err := cdep.Compile(spec(), workers)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		e, err := StartEngine(Config{
			Kind: kind, Workers: workers, Service: &kvService{state: make(map[uint64]uint64)},
			Compiled: compiled, Transport: net,
		})
		if err != nil {
			t.Fatalf("StartEngine: %v", err)
		}
		t.Cleanup(func() { _ = e.Close() })
		reply, err := net.Listen(transport.Addr("probe/" + kind.String()))
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}

		reqs := make([]*command.Request, 0, n)
		for i := uint64(1); i <= n; i++ {
			cmd := cmdWrite
			switch {
			case i%97 == 0:
				cmd = cmdGlobal
			case i%3 == 0:
				cmd = cmdRead
			case i%7 == 0:
				cmd = cmdPing
			}
			reqs = append(reqs, &command.Request{
				Client: 1 + i%32, Seq: i, Cmd: cmd, Input: input(i%9, i),
				Reply: reply.Addr(),
			})
		}
		for i := 0; i < len(reqs); i += batch {
			end := min(i+batch, len(reqs))
			if batch == 1 {
				if !e.Submit(reqs[i]) {
					t.Fatal("Submit failed")
				}
			} else if !e.SubmitBatch(reqs[i:end]) {
				t.Fatal("SubmitBatch failed")
			}
		}
		out := make(map[reqID]string, n)
		deadline := time.After(20 * time.Second)
		for len(out) < n {
			select {
			case frame := <-reply.Recv():
				resp, err := command.DecodeResponse(frame)
				if err != nil {
					t.Fatalf("DecodeResponse: %v", err)
				}
				out[reqID{resp.Client, resp.Seq}] = string(resp.Output)
			case <-deadline:
				t.Fatalf("timed out with %d/%d responses", len(out), n)
			}
		}
		return out
	}

	scan := run(t, KindScan, 1)
	index := run(t, KindIndex, 53)
	for id, want := range scan {
		if got := index[id]; got != want {
			t.Fatalf("output mismatch for client %d seq %d: scan %q, index %q",
				id.client, id.seq, want, got)
		}
	}
}

// leastLoaded must break ties deterministically (lowest worker id) so
// placement is reproducible across runs, and fall back to the full
// worker range when the compiled set lies outside it.
func TestLeastLoadedDeterministicTieBreak(t *testing.T) {
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	compiled, _ := cdep.Compile(spec(), 4)
	s, err := StartIndex(Config{Workers: 4, Service: &kvService{state: map[uint64]uint64{}},
		Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("StartIndex: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	if got := s.leastLoaded(0); got != 0 {
		t.Fatalf("all-idle full set: leastLoaded = %d, want 0", got)
	}
	if got := s.leastLoaded(command.GammaOf(2, 3)); got != 2 {
		t.Fatalf("all-idle {2,3}: leastLoaded = %d, want 2", got)
	}
	s.queues[2].load.Add(1)
	if got := s.leastLoaded(command.GammaOf(2, 3)); got != 3 {
		t.Fatalf("loaded(2) {2,3}: leastLoaded = %d, want 3", got)
	}
	s.queues[3].load.Add(1)
	if got := s.leastLoaded(command.GammaOf(2, 3)); got != 2 {
		t.Fatalf("tied {2,3}: leastLoaded = %d, want lowest id 2", got)
	}
	// A compiled set entirely outside the worker range falls back to
	// scanning every queue.
	if got := s.leastLoaded(command.GammaOf(63)); got != 0 {
		t.Fatalf("out-of-range set: leastLoaded = %d, want 0", got)
	}
	// Repeatability: same state, same answer.
	for i := 0; i < 100; i++ {
		if got := s.leastLoaded(command.GammaOf(0, 1)); got != 0 {
			t.Fatalf("tie-break not stable: got %d on iteration %d", got, i)
		}
	}
}
