package bench

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		3 * time.Millisecond,
	} {
		h.Record(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 µs: quantiles should land within the bucket
	// resolution (~6%).
	for us := 1; us <= 1000; us++ {
		h.Record(time.Duration(us) * time.Microsecond)
	}
	tests := []struct {
		q    float64
		want time.Duration
	}{
		{q: 0.10, want: 100 * time.Microsecond},
		{q: 0.50, want: 500 * time.Microsecond},
		{q: 0.90, want: 900 * time.Microsecond},
		{q: 0.99, want: 990 * time.Microsecond},
	}
	for _, tt := range tests {
		got := h.Quantile(tt.q)
		lo := time.Duration(float64(tt.want) * 0.85)
		hi := time.Duration(float64(tt.want) * 1.10)
		if got < lo || got > hi {
			t.Errorf("Quantile(%.2f) = %v, want ≈ %v", tt.q, got, tt.want)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestBucketRoundTripMonotonic(t *testing.T) {
	// bucketValue(bucketIndex(d)) must never exceed d, and indexes
	// must be monotone in d.
	prev := -1
	for us := int64(0); us < 1_000_000; us += 37 {
		d := time.Duration(us) * time.Microsecond
		idx := bucketIndex(d)
		if idx < prev {
			t.Fatalf("bucket index decreased at %v", d)
		}
		prev = idx
		if bv := bucketValue(idx); bv > d {
			t.Fatalf("bucketValue(%d) = %v > %v", idx, bv, d)
		}
	}
}

func TestCPUMeterBusyFraction(t *testing.T) {
	m := NewCPUMeter()
	role := m.Role("worker")
	t0 := time.Now()
	time.Sleep(50 * time.Millisecond)
	role.Add(time.Since(t0))
	time.Sleep(50 * time.Millisecond)
	busy, since := m.Snapshot()
	// ~50ms busy of ~100ms wall ≈ 50%; allow slack.
	share := busy["worker"].Seconds() / time.Since(since).Seconds()
	if share < 0.25 || share > 0.75 {
		t.Fatalf("worker busy = %.2f of the window, want ≈ 0.5", share)
	}
	if len(busy) != 1 {
		t.Fatalf("roles = %v, want only worker", busy)
	}
}

func TestCPUMeterReset(t *testing.T) {
	m := NewCPUMeter()
	role := m.Role("x")
	role.Add(time.Second)
	before := time.Now()
	m.Reset()
	busy, since := m.Snapshot()
	if busy["x"] != 0 {
		t.Fatalf("busy after reset = %v", busy["x"])
	}
	if since.Before(before) {
		t.Fatal("Reset did not restart the observation window")
	}
}

func TestNilMeterSafe(t *testing.T) {
	var m *CPUMeter
	role := m.Role("anything")
	role.Add(time.Millisecond) // must not panic
	if busy, _ := m.Snapshot(); busy != nil {
		t.Fatal("nil meter Snapshot not empty")
	}
}
