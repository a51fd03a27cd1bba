package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4). Counters and gauges emit one
// sample each; histograms emit a summary (quantiles + _sum + _count),
// in seconds, which is what dashboards expect for latency series.
func (r *Registry) WritePrometheus(w io.Writer) {
	snap := r.Snapshot()
	typed := map[string]bool{}
	for _, s := range snap {
		if !typed[s.Name] {
			typed[s.Name] = true
			kind := "gauge"
			switch s.Kind {
			case KindCounter:
				kind = "counter"
			case KindHistogram:
				kind = "summary"
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, kind)
		}
		switch s.Kind {
		case KindHistogram:
			writeSummary(w, s)
		default:
			fmt.Fprintf(w, "%s%s %s\n", s.Name, promLabels(s.Labels, ""), promFloat(s.Value))
		}
	}
}

// writeSummary emits one histogram as a Prometheus summary in seconds.
func writeSummary(w io.Writer, s Sample) {
	if s.Count > 0 {
		for _, q := range [...]struct {
			q  string
			us float64
		}{{"0.5", s.P50Us}, {"0.99", s.P99Us}, {"1", s.MaxUs}} {
			fmt.Fprintf(w, "%s%s %s\n", s.Name,
				promLabels(s.Labels, `quantile="`+q.q+`"`), promFloat(q.us/1e6))
		}
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, promLabels(s.Labels, ""),
		promFloat(s.SumUs/1e6))
	fmt.Fprintf(w, "%s_count%s %d\n", s.Name, promLabels(s.Labels, ""), s.Count)
}

// promLabels joins a pre-rendered label string with one extra label
// into the braced form, or returns "" when both are empty.
func promLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	default:
		return "{" + labels + "," + extra + "}"
	}
}

// promFloat renders a float without the scientific notation that trips
// some scrapers on counters.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Handler serves the registry at GET /metrics (Prometheus text).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

var expvarOnce sync.Once

// PublishExpvar publishes the registry's flattened snapshot as the
// expvar variable "psmr" (rendered by /debug/vars alongside the
// runtime's memstats). Publishing is process-global and idempotent;
// the first registry wins, which matches the one-cluster-per-process
// shape of the daemon.
func (r *Registry) PublishExpvar() {
	if r == nil {
		return
	}
	expvarOnce.Do(func() {
		expvar.Publish("psmr", expvar.Func(func() any { return r.Flatten() }))
	})
}

// ServeMux builds the observability HTTP mux: /metrics (Prometheus
// text), /debug/vars (expvar) and /debug/pprof (the runtime
// profiles). No external dependencies — everything is stdlib plus the
// registry's own text writer.
func ServeMux(r *Registry) *http.ServeMux {
	r.PublishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		io.WriteString(w, "psmr observability endpoints:\n  /metrics\n  /debug/vars\n  /debug/pprof/\n")
	})
	return mux
}
