package sched

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/transport"
)

// doneService counts executions so the benchmark can wait for the
// engine to drain without a response round-trip.
type doneService struct{ n atomic.Int64 }

func (d *doneService) Execute(command.ID, []byte) []byte {
	d.n.Add(1)
	return nil
}

// benchEngine measures the end-to-end engine constant — admission,
// conflict resolution, hand-off, completion — with a free service, so
// the scheduling machinery itself is the measured cost. This is the
// per-command overhead that saturates the scan scheduler's core in the
// paper's Figures 3/5/7 and that the index engine's O(1) routing
// attacks.
func benchEngine(b *testing.B, kind SchedulerKind, workers int) {
	b.Helper()
	net := transport.NewMemNetwork(1)
	defer net.Close()
	compiled, err := cdep.Compile(spec(), workers)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	svc := &doneService{}
	e, err := StartEngine(Config{
		Kind:      kind,
		Workers:   workers,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
	})
	if err != nil {
		b.Fatalf("StartEngine: %v", err)
	}
	defer e.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		// Distinct clients sidestep the per-client dedup window; keys
		// cycle over a working set larger than the worker count.
		if !e.Submit(&command.Request{
			Client: seq % 256, Seq: seq, Cmd: cmdWrite, Input: input(seq%1024, seq),
		}) {
			b.Fatal("Submit failed")
		}
	}
	for svc.n.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

func BenchmarkEngineKeyedScan(b *testing.B)  { benchEngine(b, KindScan, 8) }
func BenchmarkEngineKeyedIndex(b *testing.B) { benchEngine(b, KindIndex, 8) }

// benchEngineBatch is benchEngine with batched admission: the same
// keyed workload handed down in SubmitBatch bursts, measuring how much
// of the per-command engine constant the shard-lock and ingress-lock
// amortisation removes.
func benchEngineBatch(b *testing.B, kind SchedulerKind, workers, batch int) {
	b.Helper()
	net := transport.NewMemNetwork(1)
	defer net.Close()
	compiled, err := cdep.Compile(spec(), workers)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	svc := &doneService{}
	e, err := StartEngine(Config{
		Kind:      kind,
		Workers:   workers,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
	})
	if err != nil {
		b.Fatalf("StartEngine: %v", err)
	}
	defer e.Close()

	b.ResetTimer()
	for submitted := 0; submitted < b.N; {
		// Build each burst inside the timed loop, mirroring the
		// per-command benchmark's request-construction cost.
		chunk := min(batch, b.N-submitted)
		reqs := make([]*command.Request, chunk)
		for j := range reqs {
			seq := uint64(submitted + j + 1)
			reqs[j] = &command.Request{
				Client: seq % 256, Seq: seq, Cmd: cmdWrite, Input: input(seq%1024, seq),
			}
		}
		if !e.SubmitBatch(reqs) {
			b.Fatal("SubmitBatch failed")
		}
		submitted += chunk
	}
	for svc.n.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

func BenchmarkEngineKeyedScanBatch(b *testing.B)  { benchEngineBatch(b, KindScan, 8, 64) }
func BenchmarkEngineKeyedIndexBatch(b *testing.B) { benchEngineBatch(b, KindIndex, 8, 64) }

// benchAdmitKeyed drives the keyed admission path at steady state:
// bursts of pre-built requests are admitted and fully drained before
// the next burst begins, so the engine's pooled admission objects —
// inodes, key entries, ingress rings, at-most-once tables — recycle
// instead of accumulating, and the allocation meter reports the
// steady-state cost per command (asserted zero for the batched index
// path by TestAdmitKeyedIndexBatchZeroAlloc) rather than warm-up
// growth. Each burst is drained by counting executions, which is timed
// (at steady state admission and drain overlap on the worker pool,
// keeping per-op time comparable with the end-to-end engine benchmarks
// above), and then by a quiesce marker with the timer and the
// allocation meter stopped: the marker is the harness's, not the
// admission path's. Counting executions alone is not enough: the
// engines read Client and Seq once more after Execute returns, for the
// at-most-once record, and a request rewritten under them is recorded
// under its NEXT id — the next burst then drops it as a duplicate and
// the drain never ends.
func benchAdmitKeyed(b *testing.B, kind SchedulerKind, workers, batch int) {
	b.Helper()
	const burstLen = 64
	net := transport.NewMemNetwork(1)
	defer net.Close()
	compiled, err := cdep.Compile(spec(), workers)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	svc := &doneService{}
	e, err := StartEngine(Config{
		Kind:        kind,
		Workers:     workers,
		Service:     svc,
		Compiled:    compiled,
		Transport:   net,
		DedupWindow: burstLen, // bound the at-most-once tables' footprint
	})
	if err != nil {
		b.Fatalf("StartEngine: %v", err)
	}
	defer e.Close()

	// Requests are pre-built and mutated in place between fully-drained
	// bursts: the engines hold them until completion, which the quiesce
	// marker waits out. The scan engine takes ownership of each
	// SubmitBatch slice, so it gets a fresh header per burst; the index
	// engine does not retain the slice.
	reqs := make([]*command.Request, burstLen)
	for j := range reqs {
		reqs[j] = &command.Request{Cmd: cmdWrite, Input: make([]byte, 16)}
	}
	var done, seq int64
	quiesced := make(chan struct{}, 1)
	mark := func() { quiesced <- struct{}{} }
	burst := func() {
		for j := range reqs {
			seq++
			r := reqs[j]
			r.Client = uint64(seq % 16)
			r.Seq = uint64(seq)
			binary.LittleEndian.PutUint64(r.Input, uint64(seq)%1024)
			binary.LittleEndian.PutUint64(r.Input[8:], uint64(seq))
		}
		if batch == 1 {
			for _, r := range reqs {
				if !e.Submit(r) {
					b.Fatal("Submit failed")
				}
			}
		} else {
			bs := reqs
			if kind == KindScan {
				bs = append([]*command.Request(nil), reqs...)
			}
			if !e.SubmitBatch(bs) {
				b.Fatal("SubmitBatch failed")
			}
		}
		// Executed first (the scan engine orders a marker only after
		// what its scheduler has already taken in), then completed.
		done += burstLen
		for svc.n.Load() < done {
			runtime.Gosched()
		}
		b.StopTimer()
		if !e.SubmitMarker(mark) {
			b.Fatal("SubmitMarker failed")
		}
		<-quiesced
		b.StartTimer()
	}
	// Warm-up: grow the pools, the rings and the dedup tables to their
	// steady-state footprint before the meter starts.
	for i := 0; i < 64; i++ {
		burst()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for submitted := 0; submitted < b.N; submitted += burstLen {
		burst()
	}
	b.StopTimer()
}

func BenchmarkAdmitKeyedScan(b *testing.B)       { benchAdmitKeyed(b, KindScan, 8, 1) }
func BenchmarkAdmitKeyedScanBatch(b *testing.B)  { benchAdmitKeyed(b, KindScan, 8, 64) }
func BenchmarkAdmitKeyedIndex(b *testing.B)      { benchAdmitKeyed(b, KindIndex, 8, 1) }
func BenchmarkAdmitKeyedIndexBatch(b *testing.B) { benchAdmitKeyed(b, KindIndex, 8, 64) }

// sleepService parks for a fixed duration per command, so hot-key
// benchmarks measure scheduling concurrency (parked sleeps overlap
// even on one core) rather than raw CPU.
type sleepService struct {
	n atomic.Int64
	d time.Duration
}

func (s *sleepService) Execute(command.ID, []byte) []byte {
	time.Sleep(s.d)
	s.n.Add(1)
	return nil
}

// benchHotKeyRead hammers one key with read-only commands from
// distinct clients. Both engines run them concurrently (ns/op ~
// sleep/workers): the scan engine through its live-set tracking, the
// index engine through the key's reader set.
func benchHotKeyRead(b *testing.B, kind SchedulerKind, workers int) {
	b.Helper()
	net := transport.NewMemNetwork(1)
	defer net.Close()
	compiled, err := cdep.Compile(spec(), workers)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	svc := &sleepService{d: 20 * time.Microsecond}
	e, err := StartEngine(Config{
		Kind:      kind,
		Workers:   workers,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
	})
	if err != nil {
		b.Fatalf("StartEngine: %v", err)
	}
	defer e.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		if !e.Submit(&command.Request{
			Client: seq % 256, Seq: seq, Cmd: cmdRead, Input: input(5, seq),
		}) {
			b.Fatal("Submit failed")
		}
	}
	for svc.n.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

func BenchmarkHotKeyReadScan(b *testing.B)  { benchHotKeyRead(b, KindScan, 8) }
func BenchmarkHotKeyReadIndex(b *testing.B) { benchHotKeyRead(b, KindIndex, 8) }

// barrierXferSpec is the multi-key ablation baseline: the same command
// set, but the transfer declared always-conflicting, so it compiles to
// a Global class and routes as a full barrier — exactly what a C-G
// keyed by single objects forces on every multi-object command.
func barrierXferSpec() cdep.Spec {
	s := spec()
	s.Deps = append(s.Deps, cdep.Dep{A: cmdXfer, B: cmdXfer})
	return s
}

// benchMultiKey measures the end-to-end engine constant of two-key
// transfer commands: under spec() they route as RouteMultiKey (owner
// rendezvous over ≤2 workers), under barrierXferSpec() each one is an
// all-worker barrier. The gap is what key-set C-Dep buys multi-object
// commands on the keyed admission path.
func benchMultiKey(b *testing.B, kind SchedulerKind, workers int, sp cdep.Spec) {
	b.Helper()
	net := transport.NewMemNetwork(1)
	defer net.Close()
	compiled, err := cdep.Compile(sp, workers)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	svc := &doneService{}
	e, err := StartEngine(Config{
		Kind:      kind,
		Workers:   workers,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
	})
	if err != nil {
		b.Fatalf("StartEngine: %v", err)
	}
	defer e.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		in := make([]byte, 24)
		binary.LittleEndian.PutUint64(in, seq%1024)
		binary.LittleEndian.PutUint64(in[8:], (seq*7+3)%1024)
		binary.LittleEndian.PutUint64(in[16:], seq)
		if !e.Submit(&command.Request{
			Client: seq % 256, Seq: seq, Cmd: cmdXfer, Input: in,
		}) {
			b.Fatal("Submit failed")
		}
	}
	for svc.n.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
}

func BenchmarkMultiKeyScan(b *testing.B)  { benchMultiKey(b, KindScan, 8, spec()) }
func BenchmarkMultiKeyIndex(b *testing.B) { benchMultiKey(b, KindIndex, 8, spec()) }
func BenchmarkMultiKeyBarrierScan(b *testing.B) {
	benchMultiKey(b, KindScan, 8, barrierXferSpec())
}
func BenchmarkMultiKeyBarrierIndex(b *testing.B) {
	benchMultiKey(b, KindIndex, 8, barrierXferSpec())
}
