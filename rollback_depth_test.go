package psmr_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/mvstore"
	"github.com/psmr/psmr/internal/netfs"
)

// rollbackDepthFS builds a netfs service preloaded with `files` closed
// files spread over 8 directories — the stand-in for "store size" in
// the abort-cost measurement.
func rollbackDepthFS(files int) *netfs.Service {
	const t0 = int64(1_700_000_000_000_000_000)
	svc := netfs.NewService()
	fs := svc.FS()
	for d := 0; d < 8; d++ {
		fs.Mkdir(fmt.Sprintf("/data%d", d), 0o755, t0)
	}
	for i := 0; i < files; i++ {
		fd, _ := fs.Create(fmt.Sprintf("/data%d/file%d", i%8, i), 0o644, t0)
		fs.Release(fd)
	}
	return svc
}

// rollbackCycle speculates one single-inode netfs mutation (a utimens,
// which versions exactly one file record regardless of store size) at
// a fresh epoch and aborts it, returning the time spent in Abort
// alone. One touched key at every store size is precisely the
// O(touched-keys) claim under test; a structural command like create
// would add a copy-on-write of the parent directory's entry table —
// real work, but speculation cost, not abort cost.
func rollbackCycle(tb testing.TB, svc *netfs.Service, e mvstore.Epoch, input []byte) time.Duration {
	tb.Helper()
	if out := svc.SpeculateAt(e, netfs.CmdUtimens, input); len(out) == 0 || out[0] != byte(netfs.OK) {
		tb.Fatalf("speculative utimens failed: %v", out)
	}
	start := time.Now()
	svc.Abort(e)
	return time.Since(start)
}

func rollbackUtimensInput() []byte {
	args := binary.LittleEndian.AppendUint64(nil, 1_700_000_000_000_000_001)
	args = binary.LittleEndian.AppendUint64(args, 1_700_000_000_000_000_001)
	return netfs.EncodeInput("/data0/file0", args)
}

// BenchmarkRollbackDepth measures what aborting a speculative netfs
// command costs as the store grows 1k → 100k files. Under the old
// undo-record/clone-replay model the clone made this O(state); under
// mvstore the abort drops only the epoch's own uncommitted versions
// (O(touched keys)), so ns/abort must stay flat across store sizes.
func BenchmarkRollbackDepth(b *testing.B) {
	input := rollbackUtimensInput()
	for _, files := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("%dfiles", files), func(b *testing.B) {
			svc := rollbackDepthFS(files)
			b.ResetTimer()
			var inAbort time.Duration
			for i := 0; i < b.N; i++ {
				inAbort += rollbackCycle(b, svc, mvstore.Epoch(i+1), input)
			}
			b.StopTimer()
			if got := svc.Uncommitted(); got != 0 {
				b.Fatalf("%d uncommitted versions survived the aborts", got)
			}
			b.ReportMetric(float64(inAbort.Nanoseconds())/float64(b.N), "ns/abort")
		})
	}
}

// TestRollbackDepthFlat is the acceptance criterion behind
// BenchmarkRollbackDepth: the netfs abort cost at a 100k-file store
// stays within 2x of the 1k-file store. Measured as best-of-rounds
// totals over many speculate/abort cycles so scheduler noise and GC
// pauses cannot fake a regression.
func TestRollbackDepthFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	input := rollbackUtimensInput()
	cycles := 2000
	if raceEnabled {
		cycles = 500
	}
	measure := func(files int) time.Duration {
		svc := rollbackDepthFS(files)
		var epoch mvstore.Epoch
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			var total time.Duration
			for i := 0; i < cycles; i++ {
				epoch++
				total += rollbackCycle(t, svc, epoch, input)
			}
			if total < best {
				best = total
			}
		}
		if got := svc.Uncommitted(); got != 0 {
			t.Fatalf("%d uncommitted versions survived the aborts", got)
		}
		return best
	}
	small := measure(1_000)
	large := measure(100_000)
	ratio := float64(large) / float64(small)
	t.Logf("abort cost: 1k files %v, 100k files %v (%.2fx)", small, large, ratio)
	if ratio > 2 {
		t.Fatalf("netfs abort cost grew %.2fx from 1k to 100k files (want <= 2x): O(touched-keys) abort regressed", ratio)
	}
}
