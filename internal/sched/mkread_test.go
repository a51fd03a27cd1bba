package sched

// Tests for the multi-key READ-ONLY fast path: snapshot reads over a
// key set compile to a read-only multikey route and latch each key's
// reader set instead of rendezvousing the keys' owner workers, so
// overlapping snapshots run concurrently while writers on any touched
// key still interlock with them.

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/transport"
)

func TestMultiKeyReadOnlyRoute(t *testing.T) {
	compiled, err := cdep.Compile(spec(), 4)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	mr := compiled.Route(cmdMRead)
	if mr.Kind != cdep.RouteMultiKey || !mr.ReadOnly {
		t.Fatalf("mread route = %v readonly=%v, want multikey read-only", mr.Kind, mr.ReadOnly)
	}
	xf := compiled.Route(cmdXfer)
	if xf.Kind != cdep.RouteMultiKey || xf.ReadOnly {
		t.Fatalf("xfer route = %v readonly=%v, want multikey writer", xf.Kind, xf.ReadOnly)
	}
	if compiled.Class(cmdMRead) != cdep.MultiKeyed {
		t.Fatalf("mread class = %v", compiled.Class(cmdMRead))
	}
}

// concurrencyService counts the peak number of overlapping executions.
type concurrencyService struct {
	cur, peak atomic.Int64
	slow      time.Duration
}

func (s *concurrencyService) Execute(command.ID, []byte) []byte {
	c := s.cur.Add(1)
	for {
		p := s.peak.Load()
		if c <= p || s.peak.CompareAndSwap(p, c) {
			break
		}
	}
	time.Sleep(s.slow)
	s.cur.Add(-1)
	return []byte{0}
}

// Overlapping snapshot reads must run concurrently on both engines:
// they share every key they touch, but read-read pairs do not
// conflict, so nothing may serialize them.
func TestMultiKeyReadersRunConcurrently(t *testing.T) {
	for _, kind := range []SchedulerKind{KindScan, KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			svc := &concurrencyService{slow: 10 * time.Millisecond}
			compiled, err := cdep.Compile(spec(), 4)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			net := transport.NewMemNetwork(1)
			t.Cleanup(func() { _ = net.Close() })
			e, err := StartEngine(Config{Kind: kind, Workers: 4, Service: svc, Compiled: compiled, Transport: net})
			if err != nil {
				t.Fatalf("StartEngine: %v", err)
			}
			t.Cleanup(func() { _ = e.Close() })

			// Four snapshots over the same two keys.
			var reqs []*command.Request
			for i := uint64(1); i <= 4; i++ {
				reqs = append(reqs, &command.Request{Client: i, Seq: 1, Cmd: cmdMRead, Input: input3(1, 2, i)})
			}
			if !e.SubmitBatch(reqs) {
				t.Fatal("SubmitBatch failed")
			}
			deadline := time.Now().Add(5 * time.Second)
			for svc.cur.Load() != 0 || svc.peak.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("timed out waiting for snapshots")
				}
				time.Sleep(time.Millisecond)
			}
			if svc.peak.Load() < 2 {
				t.Fatalf("peak concurrency = %d, want >= 2 (snapshot reads serialized)", svc.peak.Load())
			}
		})
	}
}

// A snapshot read waits for earlier writers of every key it touches,
// and a later writer (or transfer) on any touched key waits for it —
// on both engines, with no conflicting overlap.
func TestMultiKeyReadWriterInterlock(t *testing.T) {
	for _, kind := range []SchedulerKind{KindScan, KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			compiled, err := cdep.Compile(spec(), 4)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			svc := newTraceSetService(compiled, 2*time.Millisecond)
			net := transport.NewMemNetwork(1)
			t.Cleanup(func() { _ = net.Close() })
			e, err := StartEngine(Config{Kind: kind, Workers: 4, Service: svc, Compiled: compiled, Transport: net})
			if err != nil {
				t.Fatalf("StartEngine: %v", err)
			}
			t.Cleanup(func() { _ = e.Close() })

			reqs := []*command.Request{
				{Client: 1, Seq: 1, Cmd: cmdWrite, Input: input(1, 1)},
				{Client: 1, Seq: 2, Cmd: cmdWrite, Input: input(2, 2)},
				{Client: 2, Seq: 1, Cmd: cmdMRead, Input: input3(1, 2, 50)},
				{Client: 3, Seq: 1, Cmd: cmdMRead, Input: input3(2, 3, 51)},
				{Client: 4, Seq: 1, Cmd: cmdXfer, Input: input3(1, 2, 70)},
				{Client: 5, Seq: 1, Cmd: cmdWrite, Input: input(3, 80)},
			}
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
			// Writers before the snapshots, transfer and the key-3 write
			// after them.
			for _, w := range []uint64{1, 2} {
				if pos[w] > pos[50] {
					t.Fatalf("write %d ran after snapshot 50: %v", w, svc.order)
				}
			}
			if pos[2] > pos[51] {
				t.Fatalf("write 2 ran after snapshot 51: %v", svc.order)
			}
			if pos[70] < pos[50] || pos[70] < pos[51] {
				t.Fatalf("transfer ran before a snapshot it conflicts with: %v", svc.order)
			}
			if pos[80] < pos[51] {
				t.Fatalf("write 80 on key 3 ran before snapshot 51: %v", svc.order)
			}
		})
	}
}
