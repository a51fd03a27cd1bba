package paxos

// Checkpoint-gated log retention: with a retain floor set the learner
// trims on the low-water mark min(slowest cursor, stable checkpoint)
// instead of the blind TrimThreshold count — batches at or above the
// floor survive for peer catch-up even after every cursor passed them,
// batches below go promptly, and memory is bounded by the checkpoint
// interval.

import (
	"fmt"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/transport"
)

// startRetentionLearner starts a bare learner with a small trim
// threshold and feeds it n decided instances.
func startRetentionLearner(t *testing.T, threshold int, start uint64) (*Learner, *transport.MemNetwork) {
	t.Helper()
	net := newTestNet(t, 1)
	l, err := StartLearner(LearnerConfig{
		GroupID:       1,
		Addr:          "retention-learner",
		Transport:     net,
		GapTimeout:    time.Hour,
		TrimThreshold: threshold,
		StartInstance: start,
	})
	if err != nil {
		t.Fatalf("StartLearner: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, net
}

func feedDecisions(t *testing.T, net *transport.MemNetwork, l *Learner, from, to uint64) {
	t.Helper()
	for inst := from; inst < to; inst++ {
		frame := NewDecisionFrame(1, inst, batchValue(fmt.Sprintf("v%05d", inst)))
		if err := net.Send(l.cfg.Addr, frame); err != nil {
			t.Fatalf("inject decision %d: %v", inst, err)
		}
	}
	waitFor(t, func() bool { return l.Frontier() >= to },
		func() string { return fmt.Sprintf("frontier %d, want %d", l.Frontier(), to) })
}

func waitFor(t *testing.T, cond func() bool, desc func() string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %s", desc())
		}
		time.Sleep(time.Millisecond)
	}
}

// drain consumes every available batch on the cursor.
func drain(c *Cursor) {
	for {
		if _, _, ready := c.TryNext(); !ready {
			return
		}
	}
}

// Without a floor the threshold count still drives trimming (the
// pre-checkpoint behavior is unchanged).
func TestRetentionWithoutFloorUsesThreshold(t *testing.T) {
	const threshold = 32
	l, net := startRetentionLearner(t, threshold, 0)
	cur := l.NewCursor()
	feedDecisions(t, net, l, 0, 3*threshold)
	drain(cur)
	if base := l.Base(); base == 0 {
		t.Fatal("threshold-driven trim never ran")
	}
	if retained := l.RetainedLen(); retained >= 3*threshold {
		t.Fatalf("retained %d batches, want < %d", retained, 3*threshold)
	}
}

// With the floor pinned at 0 the learner must retain EVERYTHING past
// the floor — even once every cursor has passed it and the count is
// far beyond the threshold — because a recovering peer needs the
// suffix above the stable checkpoint.
func TestRetentionFloorPinsLog(t *testing.T) {
	const threshold = 32
	l, net := startRetentionLearner(t, threshold, 0)
	l.SetRetainFloor(0)
	cur := l.NewCursor()
	feedDecisions(t, net, l, 0, 4*threshold)
	drain(cur)
	if base := l.Base(); base != 0 {
		t.Fatalf("base advanced to %d past a pinned floor", base)
	}
	values, start := l.RetainedValues(0)
	if start != 0 || len(values) != 4*threshold {
		t.Fatalf("RetainedValues(0) = %d values from %d, want %d from 0", len(values), start, 4*threshold)
	}
	// The retained values round-trip: a peer replays them as decided
	// frames.
	b, err := DecodeBatch(values[17])
	if err != nil || len(b.Items) != 1 || string(b.Items[0]) != "v00017" {
		t.Fatalf("retained value 17 corrupt: %v %v", err, b)
	}
}

// Advancing the floor trims below it; the count cap never outruns the
// floor; and a regressing floor call is ignored (monotonic).
func TestRetentionFloorDrivesTrim(t *testing.T) {
	const threshold = 32
	l, net := startRetentionLearner(t, threshold, 0)
	l.SetRetainFloor(0)
	cur := l.NewCursor()
	const total = 10 * threshold
	feedDecisions(t, net, l, 0, total)
	drain(cur)

	// Floor advances in checkpoint-interval steps: retained memory must
	// track frontier-floor, not total history.
	for _, floor := range []uint64{100, 200, 300} {
		l.SetRetainFloor(floor)
		if base := l.Base(); base != floor {
			t.Fatalf("after SetRetainFloor(%d): base = %d, want %d (floor drives the trim)", floor, base, floor)
		}
		if retained := l.RetainedLen(); retained != total-int(floor) {
			t.Fatalf("after SetRetainFloor(%d): retained %d, want %d", floor, retained, total-int(floor))
		}
	}
	// Monotonic: a stale lower floor cannot resurrect anything or move
	// the floor back.
	l.SetRetainFloor(100)
	if base := l.Base(); base != 300 {
		t.Fatalf("regressing floor moved base to %d", base)
	}
	// Catch-up below the floor is gone, above it intact.
	values, start := l.RetainedValues(0)
	if start != 300 || len(values) != total-300 {
		t.Fatalf("RetainedValues(0) = %d values from %d, want %d from 300", len(values), start, total-300)
	}
}

// A slow cursor holds the low-water mark below the floor: retention
// respects min(slowest cursor, floor).
func TestRetentionSlowestCursorHolds(t *testing.T) {
	const threshold = 16
	l, net := startRetentionLearner(t, threshold, 0)
	l.SetRetainFloor(0)
	slow := l.NewCursor()
	fast := l.NewCursor()
	feedDecisions(t, net, l, 0, 8*threshold)
	drain(fast)
	// Slow cursor at 10; floor far ahead: base must stop at 10.
	for i := 0; i < 10; i++ {
		slow.TryNext()
	}
	l.SetRetainFloor(100)
	if base := l.Base(); base != 10 {
		t.Fatalf("base = %d, want 10 (slowest cursor must hold retention)", base)
	}
	drain(slow)
	l.SetRetainFloor(100) // re-trigger after the cursor caught up
	if base := l.Base(); base != 100 {
		t.Fatalf("base = %d, want 100 after the slow cursor caught up", base)
	}
}

// StartInstance positions a recovering learner at the checkpoint
// boundary: earlier decisions are ignored, later ones deliver.
func TestStartInstanceSkipsPrefix(t *testing.T) {
	l, net := startRetentionLearner(t, 0, 50)
	cur := l.NewCursor()
	// The pre-checkpoint prefix must be ignored even if retransmitted.
	feedDecisions(t, net, l, 40, 60)
	b, inst, ok := cur.Next()
	if !ok || inst != 50 || len(b.Items) != 1 || string(b.Items[0]) != "v00050" {
		t.Fatalf("first delivery = %v @%d ok=%v, want v00050 @50", b, inst, ok)
	}
}

func TestLearnerAddrFormat(t *testing.T) {
	if got := LearnerAddr(2, 5); got != "r2/g5" {
		t.Fatalf("LearnerAddr = %q", got)
	}
}
