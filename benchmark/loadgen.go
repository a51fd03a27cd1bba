package main

import (
	"sync"
	"time"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/workload"
)

// opStream produces one connection's operations. next is called by that
// connection's sender goroutine only; check is called from the waiter
// goroutines and must not touch the stream's generator state.
type opStream interface {
	next() workload.Op
	// check reports whether out is a correct reply to o.
	check(o workload.Op, out []byte) bool
}

// waiter is an in-flight call (core.Call in production, a fake in the
// generator's own tests).
type waiter interface {
	Wait() ([]byte, error)
}

// submitFunc starts one invocation on a connection.
type submitFunc func(cmd command.ID, input []byte) (waiter, error)

const (
	// closedWindow is the closed loop's outstanding-request limit per
	// connection. With 32 the key-value workloads wait on the flush,
	// proxy and skip timers (which tick no faster than about 1.1 ms on
	// the build host) and use half a core there, so throughput would say
	// nothing about the cost of any layer; with 64 they keep 1.5 to 1.8
	// of its 2 processors busy.
	closedWindow = 64
	// openWindow bounds the open loop's in-flight requests per
	// connection (= its waiter pool). A system that falls this far
	// behind blocks the sender, and because latency runs from the due
	// time the stall is charged to every request it delays.
	openWindow = 512
	// opTimeout fails a request answered later than this.
	opTimeout = 2 * time.Second
	// lateAfter is the generator lag beyond which a send counts as late.
	lateAfter = time.Millisecond
)

// phaseResult is what one connection measured in one phase.
type phaseResult struct {
	attempted int64
	failed    int64
	// completed counts replies observed before the phase deadline (the
	// closed loop's throughput numerator).
	completed int64
	// latencies holds one raw sample per answered request: from submit
	// in the closed loop, from the due time in the open loop.
	latencies []time.Duration
	// late counts open-loop sends issued more than lateAfter past due.
	late int64
}

func (r *phaseResult) merge(o phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.completed += o.completed
	r.late += o.late
	r.latencies = append(r.latencies, o.latencies...)
}

// job is one submitted call handed from the sender to a waiter.
type job struct {
	call waiter
	op   workload.Op
	from time.Time // latency origin
}

// connLoad drives one connection: one sender goroutine submits, a fixed
// pool of waiter goroutines collects replies. The pool (not a goroutine
// per request) is what bounds the requests in flight: the sender takes a
// token per submit and a waiter returns it with the reply. Waiters block
// in Call.Wait rather than on Call.Done because only Wait removes the
// call from core.Client's pending table; collecting through Done leaves
// every call reachable for the life of the client.
type connLoad struct {
	submit submitFunc
	stream opStream
	// keepLatencies makes the waiters store raw samples.
	keepLatencies bool
	// skipCheck leaves replies unchecked (null-invoker calibration).
	skipCheck bool
}

// run submits according to schedule until it returns false, then waits
// for every in-flight reply. schedule is called by the sender before each
// submit; it blocks until the request is due and returns the latency
// origin and whether the send itself was late.
func (c *connLoad) run(window int, deadline time.Time, schedule func() (from time.Time, late, ok bool)) phaseResult {
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	jobs := make(chan job, window) // never fuller than the tokens handed out
	parts := make([]phaseResult, window)
	var wg sync.WaitGroup
	for i := 0; i < window; i++ {
		wg.Add(1)
		go func(part *phaseResult) {
			defer wg.Done()
			for j := range jobs {
				out, err := j.call.Wait()
				now := time.Now()
				lat := now.Sub(j.from)
				switch {
				case err != nil, lat > opTimeout:
					part.failed++
				case !c.skipCheck && !c.stream.check(j.op, out):
					part.failed++
				default:
					if !now.After(deadline) {
						part.completed++
					}
					if c.keepLatencies {
						part.latencies = append(part.latencies, lat)
					}
				}
				tokens <- struct{}{}
			}
		}(&parts[i])
	}

	var total phaseResult
	for {
		<-tokens
		from, late, ok := schedule()
		if !ok {
			break
		}
		o := c.stream.next()
		if from.IsZero() {
			from = time.Now()
		}
		call, err := c.submit(o.Cmd, o.Input)
		total.attempted++
		if late {
			total.late++
		}
		if err != nil {
			total.failed++
			tokens <- struct{}{}
			continue
		}
		jobs <- job{call: call, op: o, from: from}
	}
	close(jobs)
	wg.Wait()
	for i := range parts {
		total.merge(parts[i])
	}
	return total
}

// closedLoop keeps window requests outstanding until the deadline.
func (c *connLoad) closedLoop(window int, d time.Duration) phaseResult {
	deadline := time.Now().Add(d)
	return c.run(window, deadline, func() (time.Time, bool, bool) {
		return time.Time{}, false, time.Now().Before(deadline)
	})
}

// closedLoopOps keeps window requests outstanding until n have been sent
// (null-invoker calibration, set-up bursts).
func (c *connLoad) closedLoopOps(window, n int) phaseResult {
	sent := 0
	return c.run(window, time.Now().Add(time.Hour), func() (time.Time, bool, bool) {
		sent++
		return time.Time{}, false, sent <= n
	})
}

// openLoop sends at a fixed rate for d: request i is due at start + i/rate
// whatever the system is doing, and its latency runs from that instant,
// so a stall is charged to every request that came due during it
// (coordinated-omission safe).
func (c *connLoad) openLoop(rate float64, d time.Duration) phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	interval := time.Duration(float64(time.Second) / rate)
	i := 0
	return c.run(openWindow, deadline, func() (time.Time, bool, bool) {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return time.Time{}, false, false
		}
		i++
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			time.Sleep(wait)
			now = time.Now()
		}
		return due, now.Sub(due) > lateAfter, true
	})
}
