package main

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/workload"
)

// nullStream produces empty operations and accepts every reply.
type nullStream struct{}

func (nullStream) next() workload.Op              { return workload.Op{} }
func (nullStream) check(workload.Op, []byte) bool { return true }

// slowCall answers after a fixed delay and tells the fake system it left.
type slowCall struct {
	delay time.Duration
	done  func()
}

func (c slowCall) Wait() ([]byte, error) {
	time.Sleep(c.delay)
	c.done()
	return nil, nil
}

// The closed loop never has more than closedWindow requests outstanding
// on a connection, and it does fill the window.
func TestClosedLoopBoundsOutstanding(t *testing.T) {
	var outstanding, peak atomic.Int64
	load := &connLoad{
		stream: nullStream{},
		submit: func(command.ID, []byte) (waiter, error) {
			n := outstanding.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			return slowCall{delay: 200 * time.Microsecond, done: func() { outstanding.Add(-1) }}, nil
		},
	}
	res := load.closedLoop(closedWindow, 150*time.Millisecond)
	if res.failed != 0 || res.attempted <= closedWindow {
		t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
	}
	if got := peak.Load(); got != closedWindow {
		t.Fatalf("peak outstanding %d, want exactly the window of %d", got, closedWindow)
	}
	if outstanding.Load() != 0 {
		t.Fatalf("%d requests still outstanding after the phase returned", outstanding.Load())
	}
}

// A system that stops accepting requests for 50 ms mid-run delays every
// request that comes due during the stall, not only the one that was being
// submitted. The open loop times each request from its due time, so all of
// them must show the stall; a generator that timed from the actual send
// (coordinated omission) would show it once. The generator's own lag
// behind the schedule is reported as late sends.
func TestOpenLoopChargesStallToEveryDueRequest(t *testing.T) {
	const (
		rate  = 2000.0
		run   = 400 * time.Millisecond
		stall = 50 * time.Millisecond
	)
	start := time.Now()
	stallFrom, stallTo := start.Add(150*time.Millisecond), start.Add(150*time.Millisecond+stall)
	load := &connLoad{
		stream:        nullStream{},
		keepLatencies: true,
		submit: func(command.ID, []byte) (waiter, error) {
			if now := time.Now(); now.After(stallFrom) && now.Before(stallTo) {
				time.Sleep(stallTo.Sub(now))
			}
			return nullCall{}, nil
		},
	}
	res := load.openLoop(rate, run)
	if res.failed != 0 {
		t.Fatalf("%d requests failed", res.failed)
	}
	if want := int64(rate * run.Seconds()); res.attempted < want-2 || res.attempted > want+2 {
		t.Fatalf("attempted %d requests, schedule has %d", res.attempted, want)
	}
	// Requests due in the first half of the stall waited at least half
	// of it: rate × 25 ms of them, less a few for timer granularity.
	halfStalled := 0
	for _, lat := range res.latencies {
		if lat >= stall/2 {
			halfStalled++
		}
	}
	if want := int(rate*(stall/2).Seconds()) - 10; halfStalled < want {
		t.Fatalf("%d requests show at least half the stall, want at least %d: latency is not measured from the due time", halfStalled, want)
	}
	// Every request due during the stall (but the first) was also sent
	// late, and the generator says so.
	if want := int64(rate*stall.Seconds()) - 10; res.late < want {
		t.Fatalf("generator reported %d late sends, want at least %d", res.late, want)
	}
}
