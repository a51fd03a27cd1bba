// Command psmr-kvd hosts a replicated key-value store over TCP: all
// cluster roles (per-group Paxos coordinators and acceptors, the
// replicas and their worker threads) run in this process, reachable by
// remote psmr-kv clients.
//
// Usage:
//
//	psmr-kvd -listen 127.0.0.1:7400 -mode psmr -workers 8 -keys 100000
//
// Remote clients need only the listen address, the mode and the worker
// count (client and server proxies must agree on the multiprogramming
// level, paper §IV-D).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7400", "TCP host:port to serve on")
		mode    = flag.String("mode", "psmr", "replication mode: psmr|spsmr|smr")
		sched   = flag.String("sched", "scan", "spsmr scheduling engine: scan|index")
		workers = flag.Int("workers", 8, "worker threads per replica (MPL)")
		keys    = flag.Int("keys", 100_000, "preloaded database keys")
		opt     = flag.Bool("optimistic", false, "spsmr only: speculate on the optimistic stream, reconcile on consensus")
		ckpt    = flag.Int("checkpoint", 0, "coordinated checkpoint interval in decided commands (0 = off; single-ordered-stream modes only); SIGHUP then crash-restarts replica 1 from its peer's snapshot")
		proxies = flag.Int("proxies", 0, "ingress proxy-proposer tier size (0 = clients submit to coordinators directly); clients must pass the same -proxies")
		pbatch  = flag.Int("proxy-batch", 0, "commands per sealed proxy batch (0 = default)")
		fanout  = flag.Int("fanout", 0, "decided-value delivery stripes per group (0 = coordinator broadcasts directly)")
		metrics = flag.String("metrics-addr", "", "serve live metrics on this host:port — /metrics (Prometheus text), /debug/vars (expvar), /debug/pprof (empty = off)")
		tsample = flag.Int("trace-sample", 0, "pipeline-stage trace sampling: 0 = 1 in 1024, 1 = every command, -1 = off")
		journal = flag.Int("journal-events", 0, "flight-recorder journal size in events: 0 = default (4096), -1 = off; dump with SIGQUIT or GET /debug/flight")
	)
	flag.Parse()
	if err := run(*listen, *mode, *sched, *workers, *keys, *opt, *ckpt, *proxies, *pbatch, *fanout, *metrics, *tsample, *journal); err != nil {
		log.Fatal(err)
	}
}

func run(listen, modeName, schedName string, workers, keys int, optimistic bool, ckptInterval, proxies, proxyBatch, fanout int, metricsAddr string, traceSample, journalEvents int) error {
	var mode psmr.Mode
	switch modeName {
	case "psmr":
		mode = psmr.ModePSMR
	case "spsmr":
		mode = psmr.ModeSPSMR
	case "smr":
		mode = psmr.ModeSMR
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}
	var schedKind psmr.SchedulerKind
	switch schedName {
	case "scan":
		schedKind = psmr.SchedScan
	case "index":
		schedKind = psmr.SchedIndex
	default:
		return fmt.Errorf("unknown scheduler %q", schedName)
	}

	node, err := transport.NewTCPNode(listen)
	if err != nil {
		return err
	}
	defer node.Close()

	cluster, err := psmr.StartCluster(psmr.Config{
		Mode:     mode,
		Workers:  workers,
		Replicas: 2,
		NewService: func() command.Service {
			st := kvstore.New()
			st.Preload(keys)
			return st
		},
		Spec:          kvstore.Spec(),
		Scheduler:     schedKind,
		Optimistic:    optimistic,
		Checkpoint:    psmr.CheckpointConfig{Interval: ckptInterval},
		Proxies:       proxies,
		ProxyBatch:    proxyBatch,
		FanoutDegree:  fanout,
		Transport:     node,
		TraceSample:   traceSample,
		JournalEvents: journalEvents,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	if metricsAddr != "" {
		mux := obs.ServeMux(cluster.Registry())
		if f := cluster.Flight(); f != nil {
			mux.Handle("/debug/flight", f.Handler())
		}
		srv := &http.Server{Addr: metricsAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Println("psmr-kvd: metrics server:", err)
			}
		}()
		defer srv.Close()
		fmt.Printf("psmr-kvd: metrics on http://%s/metrics (also /debug/vars, /debug/pprof, /debug/flight)\n", metricsAddr)
	}

	fmt.Printf("psmr-kvd: %s cluster on %s — %d workers, %d groups, %d keys preloaded\n",
		mode, node.HostPort(), workers, len(cluster.Groups()), keys)
	fmt.Println("psmr-kvd: connect with: psmr-kv -server", node.HostPort(),
		"-workers", workers, "get 42")
	if ckptInterval > 0 {
		fmt.Printf("psmr-kvd: checkpointing every %d decided commands; SIGHUP crash-restarts replica 1 from its peer\n", ckptInterval)
	}
	if proxies > 0 {
		fmt.Printf("psmr-kvd: %d ingress proxies; clients must pass -proxies %d\n", proxies, proxies)
	}
	if fanout > 0 {
		fmt.Printf("psmr-kvd: decided values striped over %d relays per group\n", fanout)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGQUIT)
	for s := range sig {
		if s == syscall.SIGQUIT {
			// Black-box dump: cut a flight bundle and render it to
			// stderr, then keep serving (the airplane analogue — read
			// the recorder without crashing the plane).
			f := cluster.Flight()
			if f == nil {
				fmt.Println("psmr-kvd: SIGQUIT ignored (flight recorder off: -journal-events -1)")
				continue
			}
			f.Dump("SIGQUIT operator dump")
			f.WriteText(os.Stderr)
			continue
		}
		if s != syscall.SIGHUP {
			break
		}
		// Restart-from-peer demo: kill replica 1, then rebuild it from
		// replica 0's newest snapshot plus the retained decided suffix.
		if ckptInterval <= 0 {
			fmt.Println("psmr-kvd: SIGHUP ignored (run with -checkpoint N to enable restart-from-peer)")
			continue
		}
		fmt.Println("psmr-kvd: SIGHUP — crashing replica 1 and restarting it from its peer")
		cluster.CrashReplica(1)
		if err := cluster.RestartReplica(1); err != nil {
			fmt.Println("psmr-kvd: restart failed:", err)
			continue
		}
		for i, c := range cluster.CheckpointCounters() {
			fmt.Printf("psmr-kvd: replica %d checkpoints: %v\n", i, c)
		}
	}
	fmt.Println("psmr-kvd: shutting down")
	return nil
}
