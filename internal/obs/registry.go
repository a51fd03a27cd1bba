// Package obs is the unified observability layer for the replication
// stack: a metrics registry (typed atomic counters, gauges and
// log-bucketed histograms registered by name+labels), sampled
// pipeline-stage tracing, and live exposition (Prometheus text,
// expvar, pprof) — all with zero allocations on the hot paths.
//
// # Design
//
// Instruments come in two flavours. Owned instruments (Counter, Gauge)
// are plain atomics handed to the component that increments them; the
// registry only keeps a pointer for scraping. Func-backed instruments
// (FuncCounter, FuncGauge) wrap an existing concurrent-safe surface —
// the proxy/coordinator/checkpoint counter structs, CPUMeter roles,
// relay last-forward stamps — so migrating a counter into the registry
// never touches the loop that maintains it. Histograms reuse
// bench.Histogram (640 atomic log buckets, 1µs..~17min), which is
// already safe for concurrent recording.
//
// Scrapes (Snapshot, WritePrometheus, Flatten) read every instrument
// through atomic loads or the registered callback; they never take a
// lock a hot path also takes, so exposition cannot stall workers.
//
// # Sampling and overhead (the tracing argument)
//
// Pipeline tracing stamps a command at up to ten stage boundaries. At
// the default 1/1024 sampling a non-sampled command pays exactly one
// request-id peek (two unaligned loads), one multiply-xor hash and one
// modulo per boundary — low single-digit nanoseconds, no shared-cache
// traffic, no allocation — which is why sampled tracing is the default.
// A sampled command additionally performs one CAS claim and one atomic
// store per boundary on a private slot-table line. Folding a completed
// trace into the per-stage histograms takes a mutex, but folds happen
// at the sampling rate (~throughput/1024), so contention is noise.
// Tracing every command (TraceSample=1) is supported for debugging and
// priced accordingly: the benchmark measures it against the default as
// obs.trace_overhead_ratio.
//
// # Flight recorder (the black-box argument)
//
// Journal is the always-on black box: a fixed-size, striped, lock-free
// ring of structured events (four atomic words each) fed by every tier
// — proxy seal/shed, leader flush, decide, relay forward, learner
// gap/ooo, scheduler steal/handoff, rollback/evict, checkpoint
// barriers, watchdog transitions — plus an EvStage event per sampled
// stage crossing via the attached Tracer. The ring drops oldest on
// wrap: when an anomaly fires, the most recent history is the part
// worth keeping, and a hard size bound is what lets the recorder stay
// on in production without ever becoming the outage itself. Emit is
// allocation-free; per-command events are sampled out by the same
// deterministic request-id hash as tracing (EmitID returns after one
// hash when sampled out — 0 allocs/op, gated by `make flight-gate`).
//
// Flight is the dump side: anomaly triggers (silent relay stripe,
// rollback storm, learner gap stall) — or /debug/flight and SIGQUIT —
// snapshot the journal, the recent-trace ring and the registry into a
// timestamped Bundle, so the question "what was the system doing when
// the watchdog fired" has an answer without reproducing the failure.
//
// # Wire trace context
//
// Tracer stamps survive process boundaries through a compact tag
// appended to carrier frames (client submit, ProposeBatch, decision/
// optimistic relay frames): request id + stage bitmap + one duration
// per stamped stage, durations relative to the trace's origin so
// per-process clock skew cancels (the stamping process folds its
// stage deltas locally and ships only durations). Receivers absorb
// the tag into their own slot table first-write-wins and strip it;
// processes without a tracer parse tagged frames unchanged, because
// every frame codec reads by explicit lengths and ignores trailing
// bytes. See wire.go for the exact layout and validation rules.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/psmr/psmr/internal/bench"
)

// Kind distinguishes the instrument families in a snapshot.
type Kind int

// The instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil Counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil Counter.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value. A nil Counter reads zero.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Safe on a nil Gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load returns the current value. A nil Gauge reads zero.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metric is one registered instrument.
type metric struct {
	name   string
	labels string // pre-rendered `key="value",...` (no braces), may be empty
	kind   Kind
	read   func() float64   // counter/gauge value
	hist   *bench.Histogram // histogram only
}

// Registry holds the registered instruments. All methods are safe on a
// nil Registry (registration is dropped, snapshots are empty), so
// observability stays optional everywhere it is threaded.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(m metric) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// Counter creates and registers an owned counter.
func (r *Registry) Counter(name, labels string) *Counter {
	c := &Counter{}
	r.register(metric{name: name, labels: labels, kind: KindCounter,
		read: func() float64 { return float64(c.Load()) }})
	return c
}

// Gauge creates and registers an owned gauge.
func (r *Registry) Gauge(name, labels string) *Gauge {
	g := &Gauge{}
	r.register(metric{name: name, labels: labels, kind: KindGauge,
		read: func() float64 { return float64(g.Load()) }})
	return g
}

// FuncCounter registers a callback-backed counter over an existing
// concurrent-safe surface. fn must be safe to call at any time.
func (r *Registry) FuncCounter(name, labels string, fn func() uint64) {
	r.register(metric{name: name, labels: labels, kind: KindCounter,
		read: func() float64 { return float64(fn()) }})
}

// FuncGauge registers a callback-backed gauge. fn must be safe to call
// at any time.
func (r *Registry) FuncGauge(name, labels string, fn func() float64) {
	r.register(metric{name: name, labels: labels, kind: KindGauge, read: fn})
}

// Histogram registers an existing bench.Histogram (which is already
// safe for concurrent recording) under a name.
func (r *Registry) Histogram(name, labels string, h *bench.Histogram) {
	if h == nil {
		return
	}
	r.register(metric{name: name, labels: labels, kind: KindHistogram, hist: h})
}

// Sample is one instrument's value in a snapshot. Histogram samples
// carry the summary fields instead of Value.
type Sample struct {
	Name   string
	Labels string
	Kind   Kind
	Value  float64 // counter/gauge

	// Histogram summary (KindHistogram only). SumUs is the exact sum
	// of observations (not mean×count reconstruction), so Prometheus
	// `_sum`/`_count` rate math is faithful.
	Count               int64
	SumUs               float64
	MeanUs              float64
	P50Us, P99Us, MaxUs float64
}

// Snapshot reads every instrument once and returns the samples sorted
// by name then labels — one coherent view of the whole stack.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	out := make([]Sample, 0, len(metrics))
	for _, m := range metrics {
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind}
		if m.kind == KindHistogram {
			s.Count = m.hist.Count()
			if s.Count > 0 {
				s.SumUs = float64(m.hist.Sum()) / 1e3
				s.MeanUs = float64(m.hist.Mean().Microseconds())
				s.P50Us = float64(m.hist.Quantile(0.50).Microseconds())
				s.P99Us = float64(m.hist.Quantile(0.99).Microseconds())
				s.MaxUs = float64(m.hist.Max().Microseconds())
			}
		} else {
			s.Value = m.read()
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// Flatten renders a snapshot as a flat name→value map (histograms
// expand to _count/_mean_us/_p50_us/_p99_us/_max_us), the shape
// tests and the benchmark read counters from.
func (r *Registry) Flatten() map[string]float64 {
	snap := r.Snapshot()
	if snap == nil {
		return nil
	}
	out := make(map[string]float64, len(snap))
	for _, s := range snap {
		key := s.Name
		if s.Labels != "" {
			key += "{" + s.Labels + "}"
		}
		if s.Kind == KindHistogram {
			out[key+"_count"] = float64(s.Count)
			if s.Count > 0 {
				out[key+"_mean_us"] = s.MeanUs
				out[key+"_p50_us"] = s.P50Us
				out[key+"_p99_us"] = s.P99Us
				out[key+"_max_us"] = s.MaxUs
			}
			continue
		}
		out[key] = s.Value
	}
	return out
}
