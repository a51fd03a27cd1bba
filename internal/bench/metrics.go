// Package bench provides the measurement primitives the components
// carry: log-bucketed latency histograms and busy-time CPU metering per
// component role.
//
// The CPU meter reproduces what the paper's CPU panels show (Figures 3
// and 4): each component loop (worker, scheduler, coordinator, acceptor)
// accrues the wall time it spends processing, excluding time blocked on
// channels. Σbusy/wall per role is the role's CPU share, so "the
// scheduler is CPU-bound" appears as the scheduler role near one core.
package bench

import (
	"sync"
	"sync/atomic"
	"time"
)

// CPUMeter accumulates busy time for a set of named roles. It is safe
// for concurrent use; the per-role counters are atomics.
type CPUMeter struct {
	mu    sync.Mutex
	roles map[string]*atomic.Int64
	start time.Time
}

// NewCPUMeter creates a meter; the observation window starts now.
func NewCPUMeter() *CPUMeter {
	return &CPUMeter{
		roles: make(map[string]*atomic.Int64),
		start: time.Now(),
	}
}

// Role returns the busy-time counter for a role, creating it on first
// use. Components hold on to the returned RoleMeter; Busy/Done pairs are
// a few nanoseconds of overhead. Role on a nil meter returns a nil
// RoleMeter, whose methods are no-ops, so metering is always optional.
func (m *CPUMeter) Role(name string) *RoleMeter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.roles[name]
	if !ok {
		c = new(atomic.Int64)
		m.roles[name] = c
	}
	return &RoleMeter{busy: c}
}

// Reset restarts the observation window and zeroes all counters.
func (m *CPUMeter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.roles {
		c.Store(0)
	}
	m.start = time.Now()
}

// Snapshot returns the accumulated busy time per role plus the start
// of the observation window. The map lock is held only while the role
// pointers are copied — the atomic counters are read outside it — so
// scraping never contends with Role registration, let alone the
// worker loops.
func (m *CPUMeter) Snapshot() (busy map[string]time.Duration, since time.Time) {
	if m == nil {
		return nil, time.Time{}
	}
	m.mu.Lock()
	counters := make(map[string]*atomic.Int64, len(m.roles))
	for name, c := range m.roles {
		counters[name] = c
	}
	since = m.start
	m.mu.Unlock()

	busy = make(map[string]time.Duration, len(counters))
	for name, c := range counters {
		busy[name] = time.Duration(c.Load())
	}
	return busy, since
}

// RoleMeter accrues busy time for one role.
type RoleMeter struct {
	busy *atomic.Int64
}

// Add accrues a pre-measured busy duration. The canonical metering
// pattern is an explicit start/Add pair around the processing block
// (t0 := time.Now(); ...; meter.Add(time.Since(t0))) — a closure-based
// Busy()/stop() API used to exist but cost one allocation per loop
// iteration on hot paths.
func (r *RoleMeter) Add(d time.Duration) {
	if r == nil {
		return
	}
	r.busy.Add(int64(d))
}

// Histogram is a log-bucketed latency histogram covering 1µs..~17min
// with ~4% relative resolution. It is safe for concurrent recording.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	maxNs   atomic.Int64
}

const (
	// 64 major powers-of-two ranges × 16 minor divisions.
	minorBits   = 4
	minorCount  = 1 << minorBits
	majorCount  = 40
	bucketCount = majorCount * minorCount
)

// bucketIndex maps a duration to a bucket. Sub-microsecond values land
// in bucket 0.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < minorCount {
		if us < 0 {
			us = 0
		}
		return int(us)
	}
	major := 63 - leadingZeros64(uint64(us))
	minor := (us >> (uint(major) - minorBits)) - minorCount
	idx := int(major-minorBits+1)*minorCount + int(minor)
	if idx >= bucketCount {
		return bucketCount - 1
	}
	return idx
}

// bucketValue returns the representative duration of a bucket (its lower
// bound).
func bucketValue(idx int) time.Duration {
	major := idx / minorCount
	minor := idx % minorCount
	if major == 0 {
		return time.Duration(minor) * time.Microsecond
	}
	us := (int64(minorCount) + int64(minor)) << (uint(major) - 1)
	return time.Duration(us) * time.Microsecond
}

func leadingZeros64(x uint64) int {
	n := 0
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of all observations in nanoseconds (the
// Prometheus summary `_sum` series, which must not be a mean×count
// reconstruction).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest recorded latency.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Quantile returns the latency at quantile q in [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		seen += h.buckets[i].Load()
		if seen > target {
			return bucketValue(i)
		}
	}
	return h.Max()
}
