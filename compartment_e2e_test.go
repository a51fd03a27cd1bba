package psmr_test

// End-to-end compartmentalized ordering: the proxy-proposer tier, the
// striped decided-value fan-out and the per-subset multicast groups
// running inside full replicated clusters. The tests pin the three
// claims the refactor makes: proxy batching compresses the leader's
// ingress (frames per command well below 1), the tier fails over —
// a dead proxy is routed around and a fully dead tier surfaces as a
// distinct client error instead of a hang — and none of it changes
// what the replicas compute: fingerprints stay byte-identical to the
// direct-submission deployment, including under speculation and
// crash-restart recovery.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/multicast"
)

// withCompartment switches on the ordering-layer tiers: p ingress
// proxies sealing at batch commands (or when they run dry) and fan
// delivery stripes per group.
func withCompartment(p, batch, fan int) func(*psmr.Config) {
	return func(cfg *psmr.Config) {
		cfg.Proxies = p
		cfg.ProxyBatch = batch
		cfg.FanoutDegree = fan
	}
}

// TestProxyFrameCompressionE2E pins the acceptance bar for the proxy
// tier at the cluster level: with one proxy sealing at 8 commands and
// concurrent pipelined submitters, the leader's inbound frames per
// command must drop at least 4x below direct submission's 1.0. A proxy
// seals on count or as soon as its endpoint runs dry, so the batch size
// is whatever arrived while it was busy: submitters that each keep a
// burst in flight are what fills batches, exactly as under production
// load.
func TestProxyFrameCompressionE2E(t *testing.T) {
	cl, err := psmr.StartCluster(psmr.Config{
		Mode:       psmr.ModeSPSMR,
		Workers:    2,
		Scheduler:  psmr.SchedIndex,
		Spec:       kvstore.Spec(),
		Proxies:    1,
		ProxyBatch: 8,
		NewService: func() command.Service {
			st := kvstore.New()
			st.Preload(32)
			return st
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	const (
		submitters = 4
		rounds     = 16
		burst      = 32
		ops        = submitters * rounds * burst
	)
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for s := 0; s < submitters; s++ {
		inv, err := cl.NewClient()
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		t.Cleanup(func() { _ = inv.Close() })
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			calls := make([]*core.Call, burst)
			for r := 0; r < rounds; r++ {
				for i := range calls {
					val := binary.LittleEndian.AppendUint64(nil, uint64(r*burst+i))
					call, err := inv.Submit(kvstore.CmdUpdate, kvstore.EncodeKeyValue(uint64((s*burst+i)%32), val))
					if err != nil {
						errs <- fmt.Errorf("submitter %d: submit: %w", s, err)
						return
					}
					calls[i] = call
				}
				for _, call := range calls {
					if out, err := call.Wait(); err != nil || out[0] != kvstore.OK {
						errs <- fmt.Errorf("submitter %d: %v %v", s, err, out)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	oc := cl.OrderingCounters()
	if len(oc.Proxies) != 1 {
		t.Fatalf("proxy counters: %+v", oc.Proxies)
	}
	if q, c := oc.Proxies[0].Queued, oc.Proxies[0].Commands; q != ops || c != ops {
		t.Fatalf("proxy admitted %d and forwarded %d commands, want %d", q, c, ops)
	}
	if got := oc.Leader.InboundCommands; got < ops {
		t.Fatalf("leader admitted %d commands, want >= %d", got, ops)
	}
	if fpc := oc.Leader.FramesPerCommand(); fpc > 0.25 {
		t.Fatalf("leader frames per command = %.3f, want <= 0.25 (>= 4x compression): %+v, proxy %+v", fpc, oc.Leader, oc.Proxies[0])
	}
}

// TestProxyFailoverE2E pins the tier's failure semantics: a dead proxy
// is routed around without client-visible errors (the sender rotates
// to a survivor on the synchronous send failure), and with every proxy
// dead, Submit fails fast with the distinct ErrProxyDown instead of
// pending forever on retransmission that cannot reach a coordinator.
func TestProxyFailoverE2E(t *testing.T) {
	cl, err := psmr.StartCluster(psmr.Config{
		Mode:       psmr.ModeSPSMR,
		Workers:    2,
		Scheduler:  psmr.SchedIndex,
		Spec:       kvstore.Spec(),
		Proxies:    2,
		ProxyBatch: 4,
		NewService: func() command.Service {
			st := kvstore.New()
			st.Preload(16)
			return st
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

	for i := 0; i < 8; i++ {
		if out, err := inv.Invoke(kvstore.CmdTransfer, kvstore.EncodeTransfer(1, 2, 1)); err != nil || out[0] != kvstore.OK {
			t.Fatalf("transfer %d: %v %v", i, err, out)
		}
	}

	// One proxy dies: the client's next submits hit the dead endpoint,
	// rotate to the survivor and succeed — no error surfaces.
	cl.CrashProxy(0)
	for i := 0; i < 8; i++ {
		if out, err := inv.Invoke(kvstore.CmdTransfer, kvstore.EncodeTransfer(2, 3, 1)); err != nil || out[0] != kvstore.OK {
			t.Fatalf("post-crash transfer %d: %v %v", i, err, out)
		}
	}
	// Exactly-once accounting across the failover: key 3 started at 3
	// and received 8.
	out, err := inv.Invoke(kvstore.CmdRead, kvstore.EncodeKey(3))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if value, code := kvstore.DecodeReadOutput(out); code != kvstore.OK ||
		binary.LittleEndian.Uint64(value) != 11 {
		t.Fatalf("key 3 balance = %d, want 11", binary.LittleEndian.Uint64(value))
	}

	// The whole tier dies: submits fail fast and distinctly.
	cl.CrashProxy(1)
	if _, err := inv.Submit(kvstore.CmdRead, kvstore.EncodeKey(1)); !errors.Is(err, multicast.ErrProxyDown) {
		t.Fatalf("submit with dead tier = %v, want ErrProxyDown", err)
	}
}

// TestSubsetGroupsTransferConvergence runs the two-key transfer
// workload through per-subset multicast groups: 4 workers with a
// dedicated group per worker pair, so every transfer rides its own
// pair's group instead of the shared serial group. Money conservation
// and byte-identical replica fingerprints catch any lost or reordered
// serialization; the proxied variant stacks the full compartment
// (proxy tier + fan-out) on top of the subset routing.
func TestSubsetGroupsTransferConvergence(t *testing.T) {
	const (
		keys    = 64
		workers = 4
	)
	variants := []struct {
		name   string
		mutate []func(*psmr.Config)
	}{
		{name: "subsets"},
		{name: "subsets-proxied-fanout", mutate: []func(*psmr.Config){withCompartment(2, 4, 2)}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				stores []*markedStore
			)
			cfg := psmr.Config{
				Mode:         psmr.ModePSMR,
				Workers:      workers,
				Spec:         kvstore.Spec(),
				SubsetGroups: cdep.AllPairs(workers),
				NewService: func() command.Service {
					mu.Lock()
					defer mu.Unlock()
					st := kvstore.New()
					st.Preload(keys)
					ms := &markedStore{Store: st}
					stores = append(stores, ms)
					return ms
				},
			}
			for _, m := range v.mutate {
				m(&cfg)
			}
			cl, err := psmr.StartCluster(cfg)
			if err != nil {
				t.Fatalf("StartCluster: %v", err)
			}
			t.Cleanup(func() { _ = cl.Close() })

			// 4 worker groups + 6 pair groups + 1 serial.
			if got := len(cl.Groups()); got != workers+6+1 {
				t.Fatalf("cluster has %d groups, want %d", got, workers+6+1)
			}

			clients, ops := 3, 40
			if raceEnabled {
				clients, ops = 2, 15
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
					for i := 0; i < ops; i++ {
						from := rng.Uint64() % keys
						to := rng.Uint64() % keys
						out, err := inv.Invoke(kvstore.CmdTransfer,
							kvstore.EncodeTransfer(from, to, rng.Uint64()%10))
						if err != nil {
							errCh <- fmt.Errorf("client %d transfer %d: %w", c, i, err)
							return
						}
						if out[0] != kvstore.OK {
							errCh <- fmt.Errorf("client %d transfer(%d→%d) code %d", c, from, to, out[0])
							return
						}
						if i%4 == 0 {
							if _, err := inv.Invoke(kvstore.CmdRead, kvstore.EncodeKey(from)); err != nil {
								errCh <- fmt.Errorf("client %d read: %w", c, err)
								return
							}
						}
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

			if len(v.mutate) > 0 {
				// The frames-per-command assertion below needs at least
				// some batches to seal on COUNT: the closed-loop clients
				// above rarely coincide inside one proxy's 1ms seal
				// window (especially under the race detector), so their
				// batches may all carry a single command. A pipelined
				// burst of same-pair transfers — every frame rides pair
				// group {1,2} — fills batches deterministically, as in
				// TestProxyFrameCompressionE2E.
				burst, err := cl.NewClient()
				if err != nil {
					t.Fatalf("NewClient: %v", err)
				}
				t.Cleanup(func() { _ = burst.Close() })
				calls := make([]*core.Call, 16)
				for i := range calls {
					call, err := burst.Submit(kvstore.CmdTransfer, kvstore.EncodeTransfer(1, 2, 1))
					if err != nil {
						t.Fatalf("burst submit %d: %v", i, err)
					}
					calls[i] = call
				}
				for i, call := range calls {
					if out, err := call.Wait(); err != nil || out[0] != kvstore.OK {
						t.Fatalf("burst transfer %d: %v %v", i, err, out)
					}
				}
			}

			// Conservation through the replicated path.
			inv, err := cl.NewClient()
			if err != nil {
				t.Fatalf("NewClient: %v", err)
			}
			t.Cleanup(func() { _ = inv.Close() })
			var sum, want uint64
			for k := uint64(0); k < keys; k++ {
				out, err := inv.Invoke(kvstore.CmdRead, kvstore.EncodeKey(k))
				if err != nil {
					t.Fatalf("read %d: %v", k, err)
				}
				value, code := kvstore.DecodeReadOutput(out)
				if code != kvstore.OK || len(value) < 8 {
					t.Fatalf("read %d: code %d", k, code)
				}
				sum += binary.LittleEndian.Uint64(value)
				want += k
			}
			if sum != want {
				t.Fatalf("balance sum = %d, want %d (transfer lost or duplicated value)", sum, want)
			}

			// Global-barrier marker, then byte-identical fingerprints.
			if out, err := inv.Invoke(kvstore.CmdInsert,
				kvstore.EncodeKeyValue(keys, kvstore.EncodeKey(keys))); err != nil || out[0] != kvstore.OK {
				t.Fatalf("marker insert: %v %v", err, out)
			}
			waitForCondition(t, 10*time.Second, func() bool {
				return stores[0].inserts.Load() >= 1 && stores[1].inserts.Load() >= 1
			}, func() string {
				return fmt.Sprintf("marker inserts executed: %d and %d",
					stores[0].inserts.Load(), stores[1].inserts.Load())
			})
			if f0, f1 := stores[0].Fingerprint(), stores[1].Fingerprint(); f0 != f1 {
				t.Fatalf("replicas did not converge: %x vs %x", f0, f1)
			}

			if len(v.mutate) > 0 {
				// The proxied variant must actually have compressed the
				// coordinators' ingress.
				oc := cl.OrderingCounters()
				if oc.Leader.InboundCommands == 0 {
					t.Fatalf("no commands flowed through the proxy tier: %+v", oc)
				}
				if fpc := oc.Leader.FramesPerCommand(); fpc >= 1 {
					t.Fatalf("proxied frames per command = %.3f, want < 1", fpc)
				}
			}
		})
	}
}

// TestCompartmentDeterminismVsDirect is the determinism acceptance
// bar: the proxy tier and delivery fan-out must not change the final
// state — the same deterministic workload converges to the SAME
// fingerprint plain direct-submission sP-SMR reaches, with and without
// speculation riding on top. Runs under `make race`.
func TestCompartmentDeterminismVsDirect(t *testing.T) {
	want, _ := runOptimisticWorkload(t, psmr.SchedIndex, false, 0, false)

	variants := []struct {
		name       string
		optimistic bool
		mutate     func(*psmr.Config)
	}{
		{name: "proxied", mutate: withCompartment(2, 4, 0)},
		{name: "proxied-fanout", mutate: withCompartment(2, 4, 2)},
		{name: "fanout-only", mutate: withCompartment(0, 0, 2)},
		{name: "optimistic-proxied-fanout", optimistic: true, mutate: withCompartment(2, 4, 2)},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got, counters := runOptimisticWorkload(t, psmr.SchedIndex, v.optimistic, 0, false, v.mutate)
			if got != want {
				t.Fatalf("%s fingerprint %x != direct sP-SMR %x", v.name, got, want)
			}
			if v.optimistic && counters.Speculated == 0 {
				t.Fatalf("no speculation happened through the compartment: %v", counters)
			}
		})
	}
}

// TestCompartmentCrashRestart runs the full crash/restart recovery e2e
// (snapshot restore + decided-suffix replay, byte-identical
// convergence) with the proxy tier and fan-out stripes enabled, on the
// speculating engine — recovery must not care how ordering was fed.
func TestCompartmentCrashRestart(t *testing.T) {
	runCrashRestart(t, psmr.ModeSPSMR, psmr.SchedIndex, true, withCompartment(2, 4, 2))
}
