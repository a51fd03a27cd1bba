package paxos

import (
	"fmt"
	"testing"
	"time"
)

// The coordinator's retransmission log stays within decisionLogBytes of
// values (plus the one value whose store crossed it) and
// decisionLogInstances instances, but never drops below acceptorRetain
// instances behind the frontier. Decisions arrive in swapped pairs, so
// every other one lands above the frontier first and must count too.
func TestDecisionLogBoundedInBytes(t *testing.T) {
	for _, tc := range []struct {
		valueSize, decisions int
	}{
		{8 << 10, 4096},
		{64, 2 * decisionLogInstances},
	} {
		t.Run(fmt.Sprintf("value=%dB", tc.valueSize), func(t *testing.T) {
			c := newAdmissionCoordinator()
			value := make([]byte, tc.valueSize)
			for i := 0; i < tc.decisions; i++ {
				c.storeDecision(uint64(i^1), value)
				ctr := c.Counters()
				if ctr.LogBytes > decisionLogBytes+uint64(tc.valueSize) {
					t.Fatalf("after %d decisions the log holds %d bytes", i+1, ctr.LogBytes)
				}
				if ctr.LogInstances > decisionLogInstances {
					t.Fatalf("after %d decisions the log holds %d instances", i+1, ctr.LogInstances)
				}
				if c.trimBelow > 0 && c.frontier-c.trimBelow < acceptorRetain {
					t.Fatalf("after %d decisions the log keeps %d instances behind frontier %d, want >= %d",
						i+1, c.frontier-c.trimBelow, c.frontier, acceptorRetain)
				}
			}
			if c.trimBelow == 0 {
				t.Fatalf("%d decisions of %d bytes never trimmed the log", tc.decisions, tc.valueSize)
			}
			var bytes uint64
			for inst, v := range c.decisions {
				if inst < c.trimBelow {
					t.Fatalf("instance %d retained below trimBelow %d", inst, c.trimBelow)
				}
				bytes += uint64(len(v))
			}
			if ctr := c.Counters(); ctr.LogBytes != bytes || ctr.LogInstances != uint64(len(c.decisions)) {
				t.Fatalf("counters report %d bytes in %d instances, the log holds %d in %d",
					ctr.LogBytes, ctr.LogInstances, bytes, len(c.decisions))
			}
		})
	}
}

// A LearnReq for instances the log has dropped gets no reply, and each
// instance is counted in LearnUnserved; one for a retained instance is
// served and not counted.
func TestLearnReqBelowLogCounted(t *testing.T) {
	net := newTestNet(t, 1)
	probe, err := net.Listen("probe")
	if err != nil {
		t.Fatal(err)
	}
	c := newAdmissionCoordinator()
	c.cfg.Transport = net
	value := batchValue("x")
	for inst := uint64(0); inst < decisionLogInstances+100; inst++ {
		c.storeDecision(inst, value)
	}
	below := c.trimBelow
	if below < 10 {
		t.Fatalf("trimBelow = %d after %d decisions", below, decisionLogInstances+100)
	}
	learnReq := func(from, to uint64) {
		c.handle(encodeMessage(&message{
			Type: msgLearnReq, Group: c.cfg.GroupID, Instance: from, Instance2: Instance2{To: to}, Addr: "probe",
		}))
	}

	learnReq(below-10, below-1)
	if got := c.Counters().LearnUnserved; got != 10 {
		t.Fatalf("LearnUnserved = %d, want 10", got)
	}
	// The endpoint delivers in send order, so the first reply shows
	// whether the request below the log was answered.
	learnReq(below, below)
	select {
	case frame := <-probe.Recv():
		if m, err := decodeMessage(frame); err != nil || m.Type != msgDecision || m.Instance != below {
			t.Fatalf("first reply %+v, %v; want the decision of instance %d, the oldest retained", m, err, below)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no reply for instance %d, the oldest retained", below)
	}
	if got := c.Counters().LearnUnserved; got != 10 {
		t.Fatalf("LearnUnserved = %d after a served request, want 10", got)
	}
}
