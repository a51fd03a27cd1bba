package optimistic

// BenchmarkOptimistic* measure the REPLY latency at decision time — the
// quantity optimistic execution improves: when the decided order
// arrives, a hit releases a stored output (the execution already
// happened while consensus was in flight), while the decided path
// still has to schedule and execute the command. Run at 0% collision
// (distinct-key updates), so speculation is never contradicted and the
// hit rate is the stream-fidelity ceiling.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/transport"
)

const benchBatch = 64

func startKVBench(b testing.TB, kind sched.SchedulerKind) *Executor {
	b.Helper()
	st := kvstore.New()
	st.Preload(benchBatch)
	compiled, err := cdep.Compile(kvstore.Spec(), 4)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	net := transport.NewMemNetwork(1)
	b.Cleanup(func() { _ = net.Close() })
	x, err := StartExecutor(ExecutorConfig{
		Workers:   4,
		Service:   st,
		Compiled:  compiled,
		Transport: net,
		Scheduler: kind,
	})
	if err != nil {
		b.Fatalf("StartExecutor: %v", err)
	}
	b.Cleanup(func() { _ = x.Close() })
	return x
}

// benchBatchReqs builds one decided batch of distinct-key updates
// (zero conflicting pairs → 0% collision).
func benchBatchReqs(iter int) []*command.Request {
	reqs := make([]*command.Request, benchBatch)
	for j := range reqs {
		seq := uint64(iter)*benchBatch + uint64(j) + 1
		reqs[j] = &command.Request{
			Client: 1,
			Seq:    seq,
			Cmd:    kvstore.CmdUpdate,
			Input:  kvstore.EncodeKeyValue(uint64(j), kvstore.EncodeKey(seq)),
		}
	}
	return reqs
}

// timeCommit measures one Commit call.
func timeCommit(x *Executor, batch []*command.Request) int64 {
	start := time.Now()
	x.Commit(batch)
	return time.Since(start).Nanoseconds()
}

// waitDrained parks until every admitted command has executed
// (benchmark-only helper: the real reconciler never needs a drain on
// the hit path).
func (x *Executor) waitDrained() {
	x.mu.Lock()
	for x.executed < x.admitted {
		x.cond.Wait()
	}
	x.mu.Unlock()
}

// BenchmarkOptimisticHitReplyLatency times Commit over batches whose
// commands were already speculated and executed — the optimistic hit
// path a replica takes when the decision confirms its speculation.
func BenchmarkOptimisticHitReplyLatency(b *testing.B) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		b.Run(kind.String(), func(b *testing.B) {
			x := startKVBench(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := benchBatchReqs(i)
				x.Speculate(batch)
				x.waitDrained() // speculation finished while "consensus ran"
				b.StartTimer()
				x.Commit(batch)
			}
			b.StopTimer()
			c := x.Counters()
			if hr := c.HitRate(); hr < 0.9 {
				b.Fatalf("hit rate %.3f < 0.90 (%v)", hr, c)
			}
			b.ReportMetric(100*c.HitRate(), "hit%")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/cmd")
		})
	}
}

// BenchmarkOptimisticDecidedReplyLatency times Commit over batches
// that were never speculated — the decided path a plain replica (or a
// complete optimistic miss) takes: schedule, execute, then reply.
func BenchmarkOptimisticDecidedReplyLatency(b *testing.B) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		b.Run(kind.String(), func(b *testing.B) {
			x := startKVBench(b, kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.Commit(benchBatchReqs(i))
			}
			b.StopTimer()
			c := x.Counters()
			if c.Hits != 0 {
				b.Fatalf("decided-path benchmark recorded hits: %v", c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/cmd")
		})
	}
}

// The acceptance guard behind the two benchmarks: at 0% collision the
// optimistic hit path must answer a decided command strictly faster
// than the decided path executes it, with a hit rate >= 90%. The rounds
// alternate between the two executors (and which goes first) and the
// per-round medians are compared, so one stall of the host lands in
// one round of one side and cannot flip the verdict.
func TestOptimisticHitLatencyBelowDecided(t *testing.T) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			const rounds = 50
			hit := startKVBench(t, kind)
			dec := startKVBench(t, kind)
			hitNs := make([]int64, rounds)
			decNs := make([]int64, rounds)
			for i := 0; i < rounds; i++ {
				if i%2 == 0 {
					decNs[i] = timeCommit(dec, benchBatchReqs(i))
				}
				batch := benchBatchReqs(i)
				hit.Speculate(batch)
				hit.waitDrained()
				hitNs[i] = timeCommit(hit, batch)
				if i%2 == 1 {
					decNs[i] = timeCommit(dec, benchBatchReqs(i))
				}
			}
			c := hit.Counters()
			if hr := c.HitRate(); hr < 0.9 {
				t.Fatalf("hit rate %.3f < 0.90 (%v)", hr, c)
			}
			hitMed, decMed := medianNs(hitNs), medianNs(decNs)
			if hitMed >= decMed {
				t.Fatalf("hit path median %dns per round not below decided path %dns", hitMed, decMed)
			}
			t.Logf("%s: median round hit %dns vs decided %dns per %d commands (%.1fx), hit rate %.1f%%",
				kind, hitMed, decMed, benchBatch,
				float64(decMed)/float64(hitMed), 100*c.HitRate())
		})
	}
}

// medianNs returns the median of ns, which it sorts.
func medianNs(ns []int64) int64 {
	slices.Sort(ns)
	return ns[len(ns)/2]
}

// startGhostBacklog builds the ghost-backlog fixture: an executor
// whose speculation window holds `ghosts` unrelated never-decided
// commands — with the versioned stores, each also pins one uncommitted
// version in the service. Eviction is disabled so the backlog stays a
// stable fixture.
func startGhostBacklog(b testing.TB, ghosts int) *Executor {
	b.Helper()
	st := kvstore.New()
	st.Preload(benchBatch + ghosts + 1)
	compiled, err := cdep.Compile(kvstore.Spec(), 4)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	net := transport.NewMemNetwork(1)
	b.Cleanup(func() { _ = net.Close() })
	x, err := StartExecutor(ExecutorConfig{
		Workers:         4,
		Service:         st,
		Compiled:        compiled,
		Transport:       net,
		Scheduler:       sched.KindIndex,
		GhostEvictAfter: 1 << 30,
	})
	if err != nil {
		b.Fatalf("StartExecutor: %v", err)
	}
	b.Cleanup(func() { _ = x.Close() })
	var backlog []*command.Request
	for i := 0; i < ghosts; i++ {
		backlog = append(backlog, &command.Request{
			Client: 9, Seq: uint64(i + 1), Cmd: kvstore.CmdUpdate,
			Input: kvstore.EncodeKeyValue(uint64(benchBatch+i), kvstore.EncodeKey(1)),
		})
	}
	x.Speculate(backlog)
	x.waitDrained()
	return x
}

// BenchmarkReconcileGhostBacklog measures the per-decided-command
// reconcile cost while a large UNRELATED unconfirmed backlog sits in
// the speculation window — the ghost-backlog recovery scenario. Two
// mechanisms have to stay O(own keys) for the cost to be flat: the
// key-indexed window bounds the mismatch check to the command's own
// conflict set (the pre-index reconciler paid a full O(window) scan
// here), and the mvstore version chains bound confirm/commit to the
// epoch's own journal while the backlog's 4096 uncommitted versions
// sit in the same stores (the undo-record model it replaced kept the
// backlog's undo closures alive but was equally indifferent; a
// clone-based model would have re-cloned the whole state).
func BenchmarkReconcileGhostBacklog(b *testing.B) {
	for _, ghosts := range []int{0, 1024, 4096} {
		b.Run(fmt.Sprintf("backlog=%d", ghosts), func(b *testing.B) {
			x := startGhostBacklog(b, ghosts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := benchBatchReqs(i)
				x.Speculate(batch)
				x.waitDrained()
				x.Commit(batch)
			}
			b.StopTimer()
			if c := x.Counters(); c.Rollbacks != 0 {
				b.Fatalf("unexpected rollbacks against a disjoint backlog: %+v", c)
			}
		})
	}
}

// TestReconcileFlatAcrossGhostBacklog is the acceptance guard behind
// BenchmarkReconcileGhostBacklog on the versioned stores: the
// speculate+reconcile cost of a disjoint decided batch with a
// 4096-ghost backlog (4096 uncommitted versions pinned in the store)
// must stay within a small constant factor of the empty-window cost.
// An O(window) reconcile or O(uncommitted) commit would blow the bound
// by ~64x; measurement is best-of-rounds totals so scheduler noise
// cannot fake a regression.
func TestReconcileFlatAcrossGhostBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	const rounds, perRound = 5, 30
	measure := func(ghosts int) int64 {
		x := startGhostBacklog(t, ghosts)
		if ghosts > 0 && x.ver.Uncommitted() == 0 {
			t.Fatalf("backlog fixture pinned no uncommitted versions")
		}
		iter := 0
		best := int64(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			var total int64
			for i := 0; i < perRound; i++ {
				batch := benchBatchReqs(iter)
				iter++
				start := time.Now()
				x.Speculate(batch)
				x.waitDrained()
				x.Commit(batch)
				total += time.Since(start).Nanoseconds()
			}
			if total < best {
				best = total
			}
		}
		if c := x.Counters(); c.Rollbacks != 0 {
			t.Fatalf("unexpected rollbacks against a disjoint backlog: %+v", c)
		}
		return best
	}
	empty := measure(0)
	loaded := measure(4096)
	ratio := float64(loaded) / float64(empty)
	t.Logf("reconcile cost: empty window %dns, 4096-ghost backlog %dns (%.2fx)", empty, loaded, ratio)
	if ratio > 4 {
		t.Fatalf("reconcile cost grew %.2fx with a 4096-ghost backlog (want <= 4x): O(own-keys) reconcile regressed", ratio)
	}
}
