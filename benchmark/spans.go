package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around calls into
// a layer. Parent is the index of the span that caused it (-1 for a
// root); spans of one driver share a root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Ops is the number of layer operations the interval covers.
	Ops int `json:"ops,omitempty"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

// start opens a span and returns its index.
func (l *spanLog) start(name string, parent, ops int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Parent: parent, Ops: ops, StartNs: int64(time.Since(l.base))})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	now := int64(time.Since(l.base))
	l.mu.Lock()
	l.spans[id].EndNs = now
	l.mu.Unlock()
}

// selfNs is a span's duration minus the part its children cover. Called
// with the lock held.
func (l *spanLog) selfNs(id int) int64 {
	self := l.spans[id].EndNs - l.spans[id].StartNs
	for i := id + 1; i < len(l.spans); i++ {
		if l.spans[i].Parent == id {
			self -= l.spans[i].EndNs - l.spans[i].StartNs
		}
	}
	return self
}

// childTotals sums the self time and the operations of a span's direct
// children.
func (l *spanLog) childTotals(id int) (ns int64, ops int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := id + 1; i < len(l.spans); i++ {
		if l.spans[i].Parent == id {
			ns += l.selfNs(i)
			ops += l.spans[i].Ops
		}
	}
	return ns, ops
}

// snapshot copies the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
