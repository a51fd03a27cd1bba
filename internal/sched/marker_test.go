package sched

// Quiesce markers (Engine.SubmitMarker): on both engines the marker
// closure must run with every earlier-admitted command completed and
// nothing admitted after it started — the rendezvous the checkpoint
// subsystem snapshots on.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/command"
)

// countSvc counts executions; the marker reads the count at its
// quiesce point.
type countSvc struct {
	executed atomic.Int64
	slow     time.Duration
}

func (s *countSvc) Execute(cmd command.ID, input []byte) []byte {
	if s.slow > 0 {
		time.Sleep(s.slow)
	}
	s.executed.Add(1)
	return []byte{0}
}

func TestSubmitMarkerQuiesces(t *testing.T) {
	for _, kind := range []SchedulerKind{KindScan, KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			svc := &countSvc{slow: time.Millisecond}
			e, _ := startEngine(t, kind, 4, svc)

			const perPhase = 24
			mkBatch := func(base uint64) []*command.Request {
				reqs := make([]*command.Request, 0, perPhase)
				for i := uint64(0); i < perPhase; i++ {
					cmd := cmdWrite
					if i%3 == 0 {
						cmd = cmdPing // non-keyed: fans out / steals
					}
					reqs = append(reqs, &command.Request{
						Client: 1, Seq: base + i, Cmd: cmd, Input: input(i%5, base+i),
					})
				}
				return reqs
			}

			var (
				mu   sync.Mutex
				seen []int64
				wg   sync.WaitGroup
			)
			wg.Add(3)
			for phase := 0; phase < 3; phase++ {
				if !e.SubmitBatch(mkBatch(uint64(1 + phase*perPhase))) {
					t.Fatal("SubmitBatch refused")
				}
				if !e.SubmitMarker(func() {
					defer wg.Done()
					mu.Lock()
					seen = append(seen, svc.executed.Load())
					mu.Unlock()
				}) {
					t.Fatal("SubmitMarker refused")
				}
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("markers did not run")
			}
			// Marker i must observe exactly the i+1 phases admitted
			// before it — every earlier command done, no later one
			// started.
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != 3 {
				t.Fatalf("%d markers ran, want 3", len(seen))
			}
			for i, got := range seen {
				if want := int64((i + 1) * perPhase); got != want {
					t.Fatalf("marker %d observed %d executed commands, want %d (markers must quiesce the engine)", i, got, want)
				}
			}
		})
	}
}

// A nil marker is a no-op and markers interleave with per-command
// Submit on the index engine (which orders across admission paths).
func TestSubmitMarkerNilAndSingle(t *testing.T) {
	svc := &countSvc{}
	e, _ := startEngine(t, KindIndex, 2, svc)
	if !e.SubmitMarker(nil) {
		t.Fatal("nil marker refused")
	}
	for i := uint64(1); i <= 8; i++ {
		if !e.Submit(&command.Request{Client: 1, Seq: i, Cmd: cmdWrite, Input: input(i, i)}) {
			t.Fatal("Submit refused")
		}
	}
	ran := make(chan int64, 1)
	if !e.SubmitMarker(func() { ran <- svc.executed.Load() }) {
		t.Fatal("SubmitMarker refused")
	}
	select {
	case got := <-ran:
		if got != 8 {
			t.Fatalf("marker observed %d executions, want 8", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("marker did not run")
	}
}
