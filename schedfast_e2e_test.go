package psmr_test

// End-to-end determinism for the index engine's multi-key handoff: its
// owners keep draining unrelated keyed work while a token is pending,
// yet it must claim the same per-key lock points in the same global
// order as the scan engine, which tracks conflicts against the live
// set and shares no code with it. Full replicated clusters running
// either engine — with or without speculation riding on top — must
// therefore converge to byte-identical state fingerprints under the
// shared mixed workload of two-key transfers, snapshot reads, keyed
// updates and plain reads. The owner-level concurrency claim itself
// (owners drain while a token pends) is pinned by the internal/sched
// tests; this file is the whole-cluster acceptance bar. Runs under
// `make race`.

import (
	"testing"

	psmr "github.com/psmr/psmr"
)

// TestHandoffDeterminismVsScan compares every handoff variant against
// the scan engine's fingerprint: the index engine plain, and under
// speculation with and without forced optimistic/decided reordering,
// which drives the rollback path across pooled multi-key tokens.
func TestHandoffDeterminismVsScan(t *testing.T) {
	want, _ := runOptimisticWorkload(t, psmr.SchedScan, false, 0, false)

	variants := []struct {
		name       string
		optimistic bool
		reorder    int
	}{
		{name: "index-handoff"},
		{name: "index-handoff-optimistic", optimistic: true},
		{name: "index-handoff-optimistic-reorder", optimistic: true, reorder: 2},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got, counters := runOptimisticWorkload(t, psmr.SchedIndex, v.optimistic, v.reorder, false)
			if got != want {
				t.Fatalf("%s fingerprint %x, want scan baseline %x", v.name, got, want)
			}
			if v.optimistic {
				t.Logf("%s: %v", v.name, counters)
			}
		})
	}
}
