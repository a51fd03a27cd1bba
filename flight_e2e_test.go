package psmr_test

// Flight-recorder e2e tests: cross-process trace propagation over the
// TCP transport (the client stamps submit in its own process and the
// stamp must land in the server's per-stage histograms via the wire
// tag), and the anomaly-triggered diagnostic bundle on a dead decision
// relay.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

// TestWireTraceTCPSingleHistogram runs the cluster and the client on
// two separate TCP nodes (same-node sends take the deliverLocal
// shortcut, so distinct nodes are what stand in for distinct OS
// processes) and checks that one sampled command's stamps fold into a
// single trace on the server: the client-side submit stamp crosses the
// wire as a trace tag, the proxy absorbs it, and every server-side
// stage lands in the same per-stage histogram set.
func TestWireTraceTCPSingleHistogram(t *testing.T) {
	nodeA, err := transport.NewTCPNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPNode: %v", err)
	}
	t.Cleanup(func() { _ = nodeA.Close() })
	nodeB, err := transport.NewTCPNode("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPNode: %v", err)
	}
	t.Cleanup(func() { _ = nodeB.Close() })

	// Optimistic execution needs a versioned service: run the kvstore
	// (the daemon's service) rather than the root tests' register array.
	const workers = 2
	cl, err := psmr.StartCluster(psmr.Config{
		Mode:         psmr.ModeSPSMR,
		Workers:      workers,
		Scheduler:    psmr.SchedIndex,
		Proxies:      1,
		FanoutDegree: 2,
		Optimistic:   true,
		TraceSample:  1,
		Transport:    nodeA,
		Spec:         kvstore.Spec(),
		NewService: func() command.Service {
			st := kvstore.New()
			st.Preload(64)
			return st
		},
	})
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() { _ = cl.Close() })

	// Build the remote client by hand, the way cmd/psmr-kv does:
	// its own node, its own sender, its own tracer. The cluster's
	// endpoint names are local to nodeA, so qualify them with nodeA's
	// host:port for the trip across the wire.
	groups := make([]multicast.GroupConfig, 0, len(cl.Groups()))
	for _, g := range cl.Groups() {
		coords := make([]transport.Addr, 0, len(g.Coordinators))
		for _, c := range g.Coordinators {
			coords = append(coords, nodeA.Addr(string(c)))
		}
		groups = append(groups, multicast.GroupConfig{ID: g.ID, Coordinators: coords})
	}
	cg, err := cdep.Compile(kvstore.Spec(), workers)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sender := multicast.NewSender(nodeB, groups)
	sender.UseProxies([]transport.Addr{nodeA.Addr(string(psmr.ProxyAddr(0)))})
	clientTracer := obs.NewTracer(obs.TracerConfig{Sample: 1, Final: obs.StageExecEnd})
	sender.SetTracer(clientTracer)
	const clientID = 42
	client, err := core.NewClient(core.ClientConfig{
		ID:        clientID,
		Sender:    sender,
		CG:        cg,
		Transport: nodeB,
		ReplyAddr: nodeB.Addr(fmt.Sprintf("client/%d", clientID)),
	})
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })

	const n = 32
	for i := uint64(0); i < n; i++ {
		out, err := client.Invoke(kvstore.CmdUpdate,
			kvstore.EncodeKeyValue(i%8, []byte("v")))
		if err != nil {
			t.Fatalf("Invoke(%d): %v", i, err)
		}
		if out[0] != kvstore.OK {
			t.Fatalf("update %d: error code %d", i, out[0])
		}
	}

	// The client process stamped submit (and only submit): its tracer
	// claimed slots but never folded a trace.
	if sampled, folded, _, _ := clientTracer.Counts(); sampled == 0 || folded != 0 {
		t.Fatalf("client tracer sampled=%d folded=%d, want >0 and 0", sampled, folded)
	}

	tr := cl.Tracer()
	waitForCondition(t, 5*time.Second, func() bool {
		_, folded, _, _ := tr.Counts()
		return folded >= n
	}, func() string {
		_, folded, _, _ := tr.Counts()
		return fmt.Sprintf("server folded %d traces, want %d", folded, n)
	})

	// Every server-side stage of the proxied sP-SMR pipeline recorded
	// into the one histogram set.
	for _, st := range []obs.Stage{obs.StageProxySeal, obs.StageLeaderAdmit,
		obs.StageDecided, obs.StageLearnerDeliver, obs.StageEngineAdmit,
		obs.StageExecStart, obs.StageExecEnd, obs.StageConfirm} {
		if tr.StageHistogram(st).Count() == 0 {
			t.Errorf("stage %v never recorded on the server", st)
		}
	}
	if tr.TotalHistogram().Count() == 0 {
		t.Fatal("no end-to-end latencies on the server")
	}

	// The folded records carry the client-side submit stamp: the server
	// never stamps submit itself (the client runs its own sender and
	// tracer), so a nonzero submit timestamp next to the server-side
	// exec stamps proves both processes landed in one trace.
	var crossProcess bool
	for _, rec := range tr.Recent() {
		if rec.Client != clientID {
			continue
		}
		if rec.TS[obs.StageSubmit] != 0 && rec.TS[obs.StageConfirm] != 0 &&
			rec.TS[obs.StageProxySeal] != 0 {
			crossProcess = true
			break
		}
	}
	if !crossProcess {
		t.Fatalf("no folded record carries both the wire-absorbed submit stamp and server stages: %+v", tr.Recent())
	}

	// The registry carries the cluster node's wire counters: the n
	// requests came in over the client's connection and their replies
	// went out over the cluster's, each write and read carrying a frame
	// or more.
	flat := cl.Registry().Flatten()
	sent, written := flat["transport_tcp_frames_sent_total"], flat["transport_tcp_writes_total"]
	received, read := flat["transport_tcp_frames_received_total"], flat["transport_tcp_reads_total"]
	if received < n || sent < n || written == 0 || written > sent || read == 0 || read > 2*received {
		t.Fatalf("tcp counters: %v frames sent in %v writes, %v received in %v reads; want >= %d frames each way",
			sent, written, received, read, n)
	}
}

// TestFlightBundleOnDeadRelay kills the only decision relay of a
// fanned-out deployment and checks the watchdog's anomaly trigger
// captures a diagnostic bundle: the relay-silent transition event, the
// stalled stripe's last forward events, and the registry snapshot.
func TestFlightBundleOnDeadRelay(t *testing.T) {
	cl, _ := startCluster(t, psmr.Config{
		Mode:             psmr.ModeSPSMR,
		Workers:          2,
		FanoutDegree:     1,
		RelaySilentAfter: 100 * time.Millisecond,
		RetryInterval:    100 * time.Millisecond,
	})
	h := mustClient(t, cl)
	h.invoke(cmdWrite, writeInput(1, 10))

	f := cl.Flight()
	if f == nil {
		t.Fatal("flight recorder nil with journal on by default")
	}
	if got := f.Triggered(); got != 0 {
		t.Fatalf("bundles before the crash: %d", got)
	}

	cl.CrashRelay(0, 0)
	// With the single stripe dead nothing reaches the learners, so this
	// invoke can never complete — its retransmissions keep the group
	// deciding while the relay stays silent (see the watchdog test).
	driver, err := cl.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = driver.Close() })
	go func() { _, _ = driver.Invoke(cmdWrite, writeInput(2, 20)) }()

	waitForCondition(t, 10*time.Second, func() bool {
		return len(f.Bundles()) > 0
	}, func() string {
		return fmt.Sprintf("no bundle captured (relay silent transitions: %d)", cl.RelaySilent())
	})

	b := f.Bundles()[0]
	if !strings.Contains(b.Reason, "ordering_relay_silent") {
		t.Fatalf("bundle reason = %q, want an ordering_relay_silent trigger", b.Reason)
	}
	var sawSilent, sawForward bool
	for _, e := range b.Events {
		switch e.Kind {
		case obs.EvRelaySilent:
			sawSilent = true
		case obs.EvRelayForward:
			sawForward = true
		}
	}
	if !sawSilent {
		t.Error("bundle journal missing the watchdog's relay-silent transition event")
	}
	if !sawForward {
		t.Error("bundle journal missing the relay's forward events from before the crash")
	}
	var sawMetric bool
	for _, s := range b.Metrics {
		if s.Name == "ordering_relay_forwarded_total" {
			sawMetric = true
			break
		}
	}
	if !sawMetric {
		t.Error("bundle registry snapshot missing ordering_relay_forwarded_total")
	}

	// The dump renders: the operator-facing text form carries the
	// reason and the event log.
	var sb strings.Builder
	f.WriteText(&sb)
	if !strings.Contains(sb.String(), "ordering_relay_silent") {
		t.Fatalf("flight text dump missing the trigger reason:\n%s", sb.String())
	}
}
