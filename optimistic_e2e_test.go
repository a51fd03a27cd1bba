package psmr_test

// End-to-end optimistic execution: full replicated clusters running
// ModeSPSMR with Optimistic on speculate on the coordinators'
// pre-consensus stream and must converge to EXACTLY the state plain
// sP-SMR reaches — on both scheduling engines, with and without forced
// optimistic/decided reordering, under a mixed workload of two-key
// transfers (conflicting, multi-key), snapshot reads (read-only
// multi-key), plain reads, per-client keyed updates and global
// inserts. The workload is constructed so its final state is
// independent of the interleaving across clients (transfers commute as
// deltas, each client owns its update keys), which is what makes the
// cross-mode fingerprint comparison meaningful.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/optimistic"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/transport"
)

const (
	optTestKeys    = 48
	optTestWorkers = 4
)

// runOptimisticWorkload drives one cluster configuration with a fixed
// deterministic workload and returns the converged fingerprint plus
// the aggregated speculation counters. Optional mutators adjust the
// cluster config before start (the compartment e2e uses them to switch
// on the proxy tier and delivery fan-out).
func runOptimisticWorkload(t *testing.T, scheduler psmr.SchedulerKind, optimistic bool, reorder int, reSpec bool, mutate ...func(*psmr.Config)) (uint64, psmr.OptimisticCounters) {
	t.Helper()
	var (
		mu     sync.Mutex
		stores []*markedStore
	)
	cfg := psmr.Config{
		Mode:                  psmr.ModeSPSMR,
		Workers:               optTestWorkers,
		Scheduler:             scheduler,
		Optimistic:            optimistic,
		OptimisticReorder:     reorder,
		OptimisticReSpeculate: reSpec,
		Spec:                  kvstore.Spec(),
		NewService: func() command.Service {
			mu.Lock()
			defer mu.Unlock()
			st := kvstore.New()
			st.Preload(optTestKeys) // key i → value i
			ms := &markedStore{Store: st}
			stores = append(stores, ms)
			return ms
		},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	cl, err := psmr.StartCluster(cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	clients, ops := 3, 60
	if raceEnabled {
		clients, ops = 2, 20
	}
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		inv, err := cl.NewClient()
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(func() { _ = inv.Close() })
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			// Key-space partition keeps the FINAL state independent of
			// the cross-client interleaving: transfers touch only
			// [0, half) (value deltas commute), updates touch only the
			// client's own keys in [half, optTestKeys) with a constant
			// per-client value (the last write is fixed). Reads and
			// snapshot reads roam everywhere.
			const half = optTestKeys / 2
			for i := 0; i < ops; i++ {
				var (
					out []byte
					err error
				)
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					from := rng.Uint64() % half
					to := rng.Uint64() % half
					out, err = inv.Invoke(kvstore.CmdTransfer,
						kvstore.EncodeTransfer(from, to, rng.Uint64()%7))
				case 4, 5:
					out, err = inv.Invoke(kvstore.CmdMultiRead, kvstore.EncodeMultiRead(
						rng.Uint64()%optTestKeys, rng.Uint64()%optTestKeys, rng.Uint64()%optTestKeys))
					if err == nil && len(out) > 0 && out[0] != kvstore.OK {
						err = fmt.Errorf("multi-read code %d", out[0])
					}
				case 6:
					k := half + uint64(c) + uint64(clients)*(rng.Uint64()%((optTestKeys-half)/uint64(clients)))
					val := binary.LittleEndian.AppendUint64(nil, uint64(c+1)<<32)
					out, err = inv.Invoke(kvstore.CmdUpdate, kvstore.EncodeKeyValue(k%optTestKeys, val))
				default:
					out, err = inv.Invoke(kvstore.CmdRead,
						kvstore.EncodeKey(rng.Uint64()%optTestKeys))
				}
				if err != nil {
					errCh <- fmt.Errorf("client %d op %d: %w", c, i, err)
					return
				}
				_ = out
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	// Conservation check through the replicated path: transfers only
	// move value, updates overwrite deterministically.
	inv, err := cl.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = inv.Close() })

	// Quiesce both replicas before fingerprinting. The global barrier
	// marker alone is sound only for NON-optimistic modes (the barrier
	// executes strictly after everything ordered before it); in
	// optimistic mode the marker's SPECULATIVE execution can bump the
	// counter while decided-path work is still reconciling, so the
	// wait additionally requires every decided command — the clients'
	// ops plus the marker — to be order-CONFIRMED on both replicas
	// (the reconciler is sequential, so a confirmed marker implies a
	// fully confirmed prefix and a drained engine behind its barrier).
	if out, err := inv.Invoke(kvstore.CmdInsert,
		kvstore.EncodeKeyValue(optTestKeys+1, kvstore.EncodeKey(1))); err != nil || out[0] != kvstore.OK {
		t.Fatalf("marker insert: %v %v", err, out)
	}
	totalDecided := uint64(clients*ops + 1)
	waitForCondition(t, 10*time.Second, func() bool {
		if stores[0].inserts.Load() < 1 || stores[1].inserts.Load() < 1 {
			return false
		}
		if !optimistic {
			return true
		}
		cs := cl.OptimisticCounters()
		return len(cs) == 2 && cs[0].Decided() >= totalDecided && cs[1].Decided() >= totalDecided
	}, func() string {
		return fmt.Sprintf("marker inserts %d/%d, decided %v (want %d each)",
			stores[0].inserts.Load(), stores[1].inserts.Load(),
			cl.OptimisticCounters(), totalDecided)
	})
	f0, f1 := stores[0].Fingerprint(), stores[1].Fingerprint()
	if f0 != f1 {
		t.Fatalf("replicas diverged: %x vs %x", f0, f1)
	}

	var agg psmr.OptimisticCounters
	for _, c := range cl.OptimisticCounters() {
		agg.Add(c)
	}
	return f0, agg
}

// The determinism acceptance bar: optimistic mode reaches the same
// final state fingerprint as plain sP-SMR on both engines, including
// under forced optimistic-stream reordering (which exercises the
// rollback path end to end). Runs under `make race`.
func TestOptimisticDeterminismVsSPSMR(t *testing.T) {
	want, _ := runOptimisticWorkload(t, psmr.SchedScan, false, 0, false)

	variants := []struct {
		name      string
		scheduler psmr.SchedulerKind
		reorder   int
		reSpec    bool
	}{
		{name: "scan", scheduler: psmr.SchedScan},
		{name: "index", scheduler: psmr.SchedIndex},
		{name: "scan-reorder", scheduler: psmr.SchedScan, reorder: 2},
		{name: "index-reorder", scheduler: psmr.SchedIndex, reorder: 2},
		// Forced reordering with re-speculation: rollback collateral is
		// re-admitted against the repaired state, and the final state
		// must STILL be byte-identical to plain sP-SMR's.
		{name: "scan-reorder-respec", scheduler: psmr.SchedScan, reorder: 2, reSpec: true},
		{name: "index-reorder-respec", scheduler: psmr.SchedIndex, reorder: 2, reSpec: true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got, counters := runOptimisticWorkload(t, v.scheduler, true, v.reorder, v.reSpec)
			if got != want {
				t.Fatalf("optimistic %s fingerprint %x != sP-SMR %x (counters: %v)",
					v.name, got, want, counters)
			}
			if counters.Speculated == 0 {
				t.Fatalf("no speculation happened: %v", counters)
			}
			if counters.Decided() == 0 {
				t.Fatalf("no decided commands reconciled: %v", counters)
			}
			if !v.reSpec && counters.ReSpeculations != 0 {
				t.Fatalf("re-speculation fired with the knob off: %v", counters)
			}
			t.Logf("%s: %v", v.name, counters)
		})
	}

	// Plain sP-SMR on the index engine must agree too (sanity for the
	// cross-mode comparison itself).
	if got, _ := runOptimisticWorkload(t, psmr.SchedIndex, false, 0, false); got != want {
		t.Fatalf("sP-SMR index fingerprint %x != scan %x", got, want)
	}
}

// Optimistic clusters keep every client-visible guarantee of the other
// modes: at-most-once execution under retransmission pressure and
// replica crash tolerance.
func TestOptimisticClientGuarantees(t *testing.T) {
	var (
		mu     sync.Mutex
		stores []*markedStore
	)
	cl, err := psmr.StartCluster(psmr.Config{
		Mode:          psmr.ModeSPSMR,
		Workers:       2,
		Optimistic:    true,
		Spec:          kvstore.Spec(),
		RetryInterval: 50 * time.Millisecond,
		NewService: func() command.Service {
			mu.Lock()
			defer mu.Unlock()
			st := kvstore.New()
			st.Preload(16)
			ms := &markedStore{Store: st}
			stores = append(stores, ms)
			return ms
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	inv, err := cl.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = inv.Close() })

	// Transfers survive a crashed replica and stay exactly-once.
	for i := 0; i < 10; i++ {
		if out, err := inv.Invoke(kvstore.CmdTransfer, kvstore.EncodeTransfer(1, 2, 1)); err != nil || out[0] != kvstore.OK {
			t.Fatalf("transfer %d: %v %v", i, err, out)
		}
	}
	cl.CrashReplica(1)
	for i := 0; i < 10; i++ {
		if out, err := inv.Invoke(kvstore.CmdTransfer, kvstore.EncodeTransfer(2, 3, 1)); err != nil || out[0] != kvstore.OK {
			t.Fatalf("post-crash transfer %d: %v %v", i, err, out)
		}
	}
	// Exactly-once accounting: key 3 started at 3 and received 10.
	out, err := inv.Invoke(kvstore.CmdRead, kvstore.EncodeKey(3))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	value, code := kvstore.DecodeReadOutput(out)
	if code != kvstore.OK || binary.LittleEndian.Uint64(value) != 13 {
		t.Fatalf("key 3 balance = %d, want 13", binary.LittleEndian.Uint64(value))
	}
}

// A replica whose learner is cut off while 128 requests stay outstanding
// (its peer keeps answering the clients) comes back thousands of
// commands behind with the optimistic stream running live at the head.
// The speculation window is what keeps that recoverable: the replica
// speculates at most one window ahead of its own decided cursor instead
// of the whole backlog, so every rollback on the way back is bounded by
// the window, and both replicas end with byte-identical state.
func TestOptimisticStalledReplicaCatchesUp(t *testing.T) {
	const (
		keys        = 1024
		hot         = 16
		clients     = 2
		outstanding = 64
	)
	ops, stallAt, releaseAt := 6000, 1000, 3000
	if raceEnabled {
		ops, stallAt, releaseAt = 1500, 300, 800
	}
	var (
		mu     sync.Mutex
		stores []*markedStore
	)
	net := transport.NewMemNetwork(1)
	cl, err := psmr.StartCluster(psmr.Config{
		Mode:                  psmr.ModeSPSMR,
		Workers:               2,
		Scheduler:             psmr.SchedIndex,
		Optimistic:            true,
		OptimisticReSpeculate: true,
		OptimisticReorder:     16,
		Spec:                  kvstore.Spec(),
		Transport:             net,
		NewService: func() command.Service {
			mu.Lock()
			defer mu.Unlock()
			st := kvstore.New()
			st.Preload(keys)
			ms := &markedStore{Store: st}
			stores = append(stores, ms)
			return ms
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	stalled := paxos.LearnerAddr(1, 0)

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		inv, err := cl.NewClient()
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(func() { _ = inv.Close() })
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			window := make([]*core.Call, 0, outstanding)
			for i := 0; i < ops || len(window) > 0; i++ {
				if len(window) == outstanding || i >= ops {
					if out, err := window[0].Wait(); err != nil || out[0] != kvstore.OK {
						errCh <- fmt.Errorf("client %d: %v %v", c, err, out)
						return
					}
					window = window[1:]
				}
				if i >= ops {
					continue
				}
				// Client 0's progress drives the fault, so the stall covers
				// a fixed share of the run whatever the host's speed.
				if c == 0 && i == stallAt {
					net.SetFault("", stalled, transport.Fault{Partitioned: true})
				}
				if c == 0 && i == releaseAt {
					net.SetFault("", stalled, transport.Fault{})
				}
				// A third of the commands move value between the hot keys
				// (conflicts, and a conserved sum); the rest read.
				cmd, input := kvstore.CmdRead, kvstore.EncodeKey(hot+rng.Uint64()%(keys-hot))
				if rng.Intn(3) == 0 {
					cmd, input = kvstore.CmdTransfer, kvstore.EncodeTransfer(rng.Uint64()%hot, rng.Uint64()%hot, rng.Uint64()%5)
				}
				call, err := inv.Submit(cmd, input)
				if err != nil {
					errCh <- fmt.Errorf("client %d submit: %w", c, err)
					return
				}
				window = append(window, call)
			}
			errCh <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}

	inv, err := cl.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = inv.Close() })
	if out, err := inv.Invoke(kvstore.CmdInsert,
		kvstore.EncodeKeyValue(keys+1, kvstore.EncodeKey(1))); err != nil || out[0] != kvstore.OK {
		t.Fatalf("marker insert: %v %v", err, out)
	}
	// Quiesced means the marker and every command before it are
	// order-confirmed on both replicas (see runOptimisticWorkload).
	total := uint64(clients*ops + 1)
	waitForCondition(t, 60*time.Second, func() bool {
		cs := cl.OptimisticCounters()
		return stores[0].inserts.Load() >= 1 && stores[1].inserts.Load() >= 1 &&
			cs[0].Decided() >= total && cs[1].Decided() >= total
	}, func() string {
		return fmt.Sprintf("replicas did not quiesce: marker inserts %d/%d, counters %v (want %d decided each)",
			stores[0].inserts.Load(), stores[1].inserts.Load(), cl.OptimisticCounters(), total)
	})
	if f0, f1 := stores[0].Fingerprint(), stores[1].Fingerprint(); f0 != f1 {
		t.Fatalf("replicas diverged: %x vs %x (counters %v)", f0, f1, cl.OptimisticCounters())
	}
	var sum uint64
	for k := uint64(0); k < hot; k++ {
		out := stores[1].Store.Execute(kvstore.CmdRead, kvstore.EncodeKey(k))
		value, code := kvstore.DecodeReadOutput(out)
		if code != kvstore.OK {
			t.Fatalf("read hot key %d: code %d", k, code)
		}
		sum += binary.LittleEndian.Uint64(value)
	}
	if want := uint64(hot * (hot - 1) / 2); sum != want {
		t.Fatalf("hot balances sum to %d on the replica that was stalled, want %d", sum, want)
	}
	for r, c := range cl.OptimisticCounters() {
		if c.MaxRollbackDepth > optimistic.DefaultMaxSpeculations {
			t.Fatalf("replica %d rolled back %d deep, past the %d-command speculation window: %v",
				r, c.MaxRollbackDepth, optimistic.DefaultMaxSpeculations, c)
		}
		t.Logf("replica %d: %v", r, c)
	}
	if c := cl.OptimisticCounters()[1]; c.Misses == 0 || c.Hits == 0 {
		t.Fatalf("the stalled replica should have missed during the stall and hit again after it: %v", c)
	}
}
