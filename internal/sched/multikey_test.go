package sched

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/transport"
)

// input3 builds a two-key transfer input: [k1][k2][seq].
func input3(k1, k2, seq uint64) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf, k1)
	binary.LittleEndian.PutUint64(buf[8:], k2)
	binary.LittleEndian.PutUint64(buf[16:], seq)
	return buf
}

// seqOf reads a request's sequence tag regardless of command shape
// (writes/reads/pings carry it at [8:16], transfers and snapshot reads
// at [16:24]).
func seqOf(cmd command.ID, input []byte) uint64 {
	if cmd == cmdXfer || cmd == cmdMRead {
		return binary.LittleEndian.Uint64(input[16:24])
	}
	return binary.LittleEndian.Uint64(input[8:16])
}

// traceSetService records execution order and verifies that no two
// conflicting invocations (by cdep key-SET intersection) ever overlap.
// Unlike traceService it retains full inputs, so multi-key commands
// participate in the conflict check.
type traceSetService struct {
	mu        sync.Mutex
	order     []uint64
	inFlight  map[uint64][]byte     // seq → input
	cmds      map[uint64]command.ID // seq → command
	conflicts *cdep.Compiled
	violation atomic.Bool
	slow      time.Duration
}

func newTraceSetService(c *cdep.Compiled, slow time.Duration) *traceSetService {
	return &traceSetService{
		inFlight:  make(map[uint64][]byte),
		cmds:      make(map[uint64]command.ID),
		conflicts: c,
		slow:      slow,
	}
}

func (s *traceSetService) Execute(cmd command.ID, input []byte) []byte {
	seq := seqOf(cmd, input)
	s.mu.Lock()
	for otherSeq, otherInput := range s.inFlight {
		if s.conflicts.Conflicts(cmd, input, s.cmds[otherSeq], otherInput) {
			s.violation.Store(true)
		}
	}
	s.inFlight[seq] = input
	s.cmds[seq] = cmd
	s.order = append(s.order, seq)
	s.mu.Unlock()

	if s.slow > 0 {
		time.Sleep(s.slow)
	}

	s.mu.Lock()
	delete(s.inFlight, seq)
	delete(s.cmds, seq)
	s.mu.Unlock()
	return []byte{0}
}

func (s *traceSetService) executed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

func waitSetExecuted(t *testing.T, svc *traceSetService, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if svc.executed() >= n {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out: executed %d of %d", svc.executed(), n)
}

// A transfer between two keys with live write chains on different
// workers must wait for both chains (owner rendezvous) and later
// commands on either key must wait for it — with no conflicting
// overlap anywhere.
func TestIndexMultiKeyRendezvous(t *testing.T) {
	compiled, err := cdep.Compile(spec(), 4)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	svc := newTraceSetService(compiled, 2*time.Millisecond)
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	e, err := StartIndex(Config{Workers: 4, Service: svc, Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("StartIndex: %v", err)
	}
	t.Cleanup(func() { _ = e.Close() })

	// Two distinct-key write chains (almost surely on two workers),
	// then the transfer bridging them, then writes behind it.
	var reqs []*command.Request
	for i := uint64(1); i <= 6; i++ {
		k := uint64(1)
		if i%2 == 0 {
			k = 2
		}
		reqs = append(reqs, &command.Request{Client: 1, Seq: i, Cmd: cmdWrite, Input: input(k, i)})
	}
	reqs = append(reqs, &command.Request{Client: 1, Seq: 100, Cmd: cmdXfer, Input: input3(1, 2, 100)})
	reqs = append(reqs,
		&command.Request{Client: 1, Seq: 201, Cmd: cmdWrite, Input: input(1, 201)},
		&command.Request{Client: 1, Seq: 202, Cmd: cmdWrite, Input: input(2, 202)},
	)
	if !e.SubmitBatch(reqs) {
		t.Fatal("SubmitBatch failed")
	}
	waitSetExecuted(t, svc, len(reqs))
	if svc.violation.Load() {
		t.Fatal("conflicting commands overlapped")
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	pos := make(map[uint64]int, len(svc.order))
	for i, seq := range svc.order {
		pos[seq] = i
	}
	for seq := uint64(1); seq <= 6; seq++ {
		if pos[seq] > pos[100] {
			t.Fatalf("pre-transfer write %d executed after the transfer: %v", seq, svc.order)
		}
	}
	for _, seq := range []uint64{201, 202} {
		if pos[seq] < pos[100] {
			t.Fatalf("post-transfer write %d executed before the transfer: %v", seq, svc.order)
		}
	}
}

// Readers admitted after a multi-key token latch onto its completion
// gate; a transfer admitted after a reader set waits for the set to
// drain. Both directions, no overlap.
func TestIndexMultiKeyReaderInterlock(t *testing.T) {
	compiled, err := cdep.Compile(spec(), 8)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	svc := newTraceSetService(compiled, 3*time.Millisecond)
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	e, err := StartIndex(Config{Workers: 8, Service: svc, Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("StartIndex: %v", err)
	}
	t.Cleanup(func() { _ = e.Close() })

	// Reader set on key 5, transfer {5,6} behind it, readers on both
	// keys behind the transfer.
	for i := uint64(1); i <= 4; i++ {
		e.Submit(&command.Request{Client: i, Seq: 1, Cmd: cmdRead, Input: input(5, i)})
	}
	e.Submit(&command.Request{Client: 10, Seq: 1, Cmd: cmdXfer, Input: input3(5, 6, 50)})
	e.Submit(&command.Request{Client: 11, Seq: 1, Cmd: cmdRead, Input: input(5, 60)})
	e.Submit(&command.Request{Client: 12, Seq: 1, Cmd: cmdRead, Input: input(6, 61)})
	waitSetExecuted(t, svc, 7)
	if svc.violation.Load() {
		t.Fatal("transfer overlapped a reader")
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	pos := make(map[uint64]int, len(svc.order))
	for i, seq := range svc.order {
		pos[seq] = i
	}
	for seq := uint64(1); seq <= 4; seq++ {
		if pos[seq] > pos[50] {
			t.Fatalf("reader %d ran after the transfer: %v", seq, svc.order)
		}
	}
	for _, seq := range []uint64{60, 61} {
		if pos[seq] < pos[50] {
			t.Fatalf("reader %d ran before the transfer: %v", seq, svc.order)
		}
	}
}

// A transfer whose input is too short to yield a key set must fall
// back to synchronous mode (full barrier) on both engines and still
// execute exactly once.
func TestMultiKeyKeylessFallsBackToBarrier(t *testing.T) {
	for _, kind := range []SchedulerKind{KindScan, KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			var count atomic.Int64
			e, net := startEngine(t, kind, 4, countingService{&count})
			reply, err := net.Listen("probe-mk")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			if !e.Submit(&command.Request{Client: 1, Seq: 1, Cmd: cmdXfer, Input: []byte{1, 2}, Reply: "probe-mk"}) {
				t.Fatal("Submit failed")
			}
			recvFrame(t, reply)
			if got := count.Load(); got != 1 {
				t.Fatalf("executions = %d, want 1", got)
			}
		})
	}
}

// xferState is a deterministic toy state machine whose outputs expose
// ordering: writes set key → seq returning the previous value, reads
// return the current value, transfers SWAP two keys' values returning
// both previous values, globals fold the whole state.
type xferState struct {
	mu    sync.Mutex
	state map[uint64]uint64
}

func (s *xferState) Execute(cmd command.ID, in []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch cmd {
	case cmdXfer:
		k1 := binary.LittleEndian.Uint64(in)
		k2 := binary.LittleEndian.Uint64(in[8:16])
		v1, v2 := s.state[k1], s.state[k2]
		s.state[k1], s.state[k2] = v2, v1
		return []byte(fmt.Sprintf("x%d,%d", v1, v2))
	case cmdWrite:
		k, _ := key(in)
		seq := binary.LittleEndian.Uint64(in[8:16])
		prev := s.state[k]
		s.state[k] = seq
		return []byte(fmt.Sprintf("w%d", prev))
	case cmdRead:
		k, _ := key(in)
		return []byte(fmt.Sprintf("r%d", s.state[k]))
	case cmdPing:
		return []byte(fmt.Sprintf("p%d", binary.LittleEndian.Uint64(in[8:16])))
	default: // global: fold the state
		var sum uint64
		for k, v := range s.state {
			sum += k ^ (v * 31)
		}
		return []byte(fmt.Sprintf("g%d", sum))
	}
}

// The multi-key acceptance bar: one ordered stream mixing two-key
// transfers, keyed writes, keyed READ-ONLY commands, independent pings
// and full barriers — with batched admission, reader sets and work
// stealing all enabled — must produce identical outputs on the scan
// and index engines. Runs under `make race`.
func TestMultiKeyDeterminismAcrossEngines(t *testing.T) {
	const (
		n       = 4000
		workers = 8
	)
	type reqID struct{ client, seq uint64 }
	build := func(reply transport.Addr) []*command.Request {
		reqs := make([]*command.Request, 0, n)
		for i := uint64(1); i <= n; i++ {
			var req *command.Request
			switch {
			case i%101 == 0:
				req = &command.Request{Cmd: cmdGlobal, Input: input(999, i)}
			case i%5 == 0:
				req = &command.Request{Cmd: cmdXfer, Input: input3(i%9, (i*3+1)%9, i)}
			case i%3 == 0:
				req = &command.Request{Cmd: cmdRead, Input: input(i%9, i)}
			case i%7 == 0:
				req = &command.Request{Cmd: cmdPing, Input: input(5000+i, i)}
			default:
				req = &command.Request{Cmd: cmdWrite, Input: input(i%9, i)}
			}
			req.Client, req.Seq, req.Reply = 1+i%32, i, reply
			reqs = append(reqs, req)
		}
		return reqs
	}
	run := func(t *testing.T, kind SchedulerKind, batch int) map[reqID]string {
		net := transport.NewMemNetwork(1)
		t.Cleanup(func() { _ = net.Close() })
		compiled, err := cdep.Compile(spec(), workers)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		e, err := StartEngine(Config{
			Kind: kind, Workers: workers,
			Service:  &xferState{state: make(map[uint64]uint64)},
			Compiled: compiled, Transport: net,
		})
		if err != nil {
			t.Fatalf("StartEngine: %v", err)
		}
		t.Cleanup(func() { _ = e.Close() })
		reply, err := net.Listen(transport.Addr("probe-det/" + kind.String()))
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		reqs := build(reply.Addr())
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
		deadline := time.After(30 * time.Second)
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
	index := run(t, KindIndex, 47)
	for id, want := range scan {
		if got := index[id]; got != want {
			t.Fatalf("output mismatch for client %d seq %d: scan %q, index %q",
				id.client, id.seq, want, got)
		}
	}
}

// Steal-aware placement: stealing from a queue records a raided
// penalty, leastLoaded treats the penalty as load, and the penalty
// decays once the owner drains its queue.
func TestStealAwarePlacementFeedback(t *testing.T) {
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	compiled, err := cdep.Compile(spec(), 2)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}

	// Closed engine: the queues are plain data structures, so steal()
	// and leastLoaded() can be driven deterministically.
	s, err := StartIndex(Config{Workers: 2, Service: countingService{&atomic.Int64{}},
		Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("StartIndex: %v", err)
	}
	_ = s.Close()

	frees := make([]*inode, 4)
	for i := range frees {
		frees[i] = &inode{req: &command.Request{Client: 1, Seq: uint64(i + 1), Cmd: cmdPing}}
	}
	s.queues[0].pushBatch(frees)
	batch := s.steal(1, newStealScratch())
	if len(batch) != 4 {
		t.Fatalf("stole %d, want 4", len(batch))
	}
	if got := s.queues[0].raided.Load(); got != 4 {
		t.Fatalf("raided = %d, want 4", got)
	}
	// Queue 0 now carries a raided penalty; with queue 1 holding the 4
	// stolen commands as load, placement must still avoid queue 0 once
	// its penalty exceeds queue 1's load... and prefer it again when
	// the penalty is cleared.
	s.queues[1].load.Store(0)
	if got := s.leastLoaded(0); got != 1 {
		t.Fatalf("leastLoaded with raided(0)=4 = %d, want 1", got)
	}
	s.queues[0].raided.Store(0)
	if got := s.leastLoaded(0); got != 0 {
		t.Fatalf("leastLoaded with penalty cleared = %d, want 0", got)
	}
}

// The raided penalty decays in a LIVE engine once the raided queue's
// owner drains it: pin a free command to worker 0 so its worker wakes,
// empties its queue and halves the counter. (One queued command is
// below the steal doorbell's threshold, and a thief taking it anyway
// would only add 1 before the owner's halving.)
func TestStealAwarePenaltyDecays(t *testing.T) {
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	compiled, err := cdep.Compile(spec(), 2, cdep.WithWorkerSet(cmdPing, 0))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var count atomic.Int64
	s, err := StartIndex(Config{Workers: 2, Service: countingService{&count},
		Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("StartIndex: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	s.queues[0].raided.Store(64)
	// The worker-set pin overrides the penalty, so the ping lands on
	// queue 0 and wakes its owner.
	if !s.Submit(&command.Request{Client: 1, Seq: 1, Cmd: cmdPing, Input: input(1, 1)}) {
		t.Fatal("Submit failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if count.Load() == 1 && s.queues[0].raided.Load() < 64 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("raided penalty did not decay: %d", s.queues[0].raided.Load())
}
