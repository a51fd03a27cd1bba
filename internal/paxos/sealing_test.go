package paxos

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/transport"
)

// Event-driven sealing: every test here runs with FlushInterval at an
// hour, so whatever gets decided was sealed by an event (idle endpoints,
// a decision, a full batch) and never by the timer.

// waitStatus polls the coordinator's status until cond holds; what the
// tests wait on is state they read back, never the passage of time.
func waitStatus(t *testing.T, c *Coordinator, what string, cond func(Status) bool) {
	t.Helper()
	waitFor(t, func() bool { return cond(c.Status()) },
		func() string { return fmt.Sprintf("%s: status %+v, counters %+v", what, c.Status(), c.Counters()) })
}

func waitLeader(t *testing.T, c *Coordinator) {
	t.Helper()
	waitStatus(t, c, "leadership", func(st Status) bool { return st.Leader })
}

// A lone proposal on an idle group is ordered in a message round trip:
// nothing readable, nothing in flight, so it is proposed at once.
func TestIdleProposalDecidedWithoutTimer(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{flush: time.Hour})
	waitLeader(t, g.coords[0])
	cur := g.learners[0].NewCursor()

	for i := 0; i < 3; i++ {
		start := time.Now()
		g.propose([]byte{byte(i)})
		items := collectItems(t, cur, 1)
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Fatalf("lone proposal %d decided after %v, want a round trip (<= 50ms)", i, took)
		}
		if !bytes.Equal(items[0], []byte{byte(i)}) {
			t.Fatalf("decided %v, want [%d]", items[0], i)
		}
	}
}

// faultReplies puts a fault on every acceptor reply to the leader: a
// delay keeps whatever it proposes in flight for that long, a partition
// for good.
func faultReplies(g *testGroup, f transport.Fault) {
	g.net.SetFault("", ProtoAddr(g.candAddrs[0]), f)
}

// Group commit: proposals that arrive while an instance is in flight
// form ONE batch, proposed when that instance decides — not one
// instance each, and not after a timer.
func TestGroupCommitBehindInFlightInstance(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{flush: time.Hour})
	waitLeader(t, g.coords[0])
	cur := g.learners[0].NewCursor()

	faultReplies(g, transport.Fault{Delay: 250 * time.Millisecond})
	g.propose([]byte("first"))
	waitStatus(t, g.coords[0], "the first instance in flight", func(st Status) bool { return st.Pending == 1 })
	const n = 256
	for i := 0; i < n; i++ {
		g.propose([]byte(fmt.Sprintf("v%03d", i)))
	}
	waitStatus(t, g.coords[0], "admission of the burst", func(Status) bool {
		return g.coords[0].Counters().InboundCommands == n+1
	})
	if st := g.coords[0].Status(); st.NextInstance != 1 || st.Pending != 1 {
		t.Fatalf("burst behind an in-flight instance was proposed early: %+v", st)
	}
	faultReplies(g, transport.Fault{})

	var items [][]byte
	instances := 0
	for len(items) < n+1 {
		b, _, ok := cur.Next()
		if !ok {
			t.Fatal("cursor closed early")
		}
		instances++
		items = append(items, b.Items...)
	}
	if instances > 8 {
		t.Fatalf("%d proposals behind one in-flight instance took %d instances, want <= 8", n, instances)
	}
	if string(items[0]) != "first" || string(items[n]) != fmt.Sprintf("v%03d", n-1) {
		t.Fatalf("order lost: first %q, last %q", items[0], items[n])
	}
}

// A full batch does not wait for the instance in flight: the leader
// pipelines it (up to Window).
func TestFullBatchProposedWhileInFlight(t *testing.T) {
	net := newTestNet(t, 1)
	g := startGroup(t, net, groupOptions{flush: time.Hour, batchMax: 1024})
	waitLeader(t, g.coords[0])

	faultReplies(g, transport.Fault{Partitioned: true}) // nothing decides from here on
	g.propose([]byte("first"))
	waitStatus(t, g.coords[0], "the first instance in flight", func(st Status) bool { return st.Pending == 1 })
	for i := 0; i < 4; i++ { // 1200 bytes: over BatchMaxBytes at the fourth
		g.propose(bytes.Repeat([]byte{byte(i)}, 300))
	}
	waitStatus(t, g.coords[0], "the full batch in flight next to the first", func(st Status) bool {
		return st.Pending == 2 && st.NextInstance == 2
	})
}
