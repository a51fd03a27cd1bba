package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func val(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

func checkTree(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(8)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("Get on empty tree")
	}
	if tr.Delete(1) {
		t.Fatal("Delete on empty tree")
	}
	if tr.Update(1, val(1)) {
		t.Fatal("Update on empty tree")
	}
	checkTree(t, tr)
}

func TestInsertGet(t *testing.T) {
	tr := New(8)
	const n = 1000
	for i := uint64(0); i < n; i++ {
		if !tr.Insert(i*7%n, val(i)) {
			t.Fatalf("Insert(%d) reported existing", i*7%n)
		}
	}
	checkTree(t, tr)
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		got, ok := tr.Get(i * 7 % n)
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%d) = %v, %v", i*7%n, got, ok)
		}
	}
}

func TestInsertOverwrite(t *testing.T) {
	tr := New(8)
	if !tr.Insert(5, val(1)) {
		t.Fatal("first insert")
	}
	if tr.Insert(5, val(2)) {
		t.Fatal("second insert of same key reported new")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got, _ := tr.Get(5)
	if !bytes.Equal(got, val(2)) {
		t.Fatalf("Get = %v", got)
	}
}

func TestUpdate(t *testing.T) {
	tr := New(8)
	tr.Insert(3, val(10))
	if !tr.Update(3, val(20)) {
		t.Fatal("Update existing failed")
	}
	got, _ := tr.Get(3)
	if !bytes.Equal(got, val(20)) {
		t.Fatalf("Get = %v", got)
	}
	if tr.Update(4, val(1)) {
		t.Fatal("Update missing succeeded")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestDeleteAscending(t *testing.T) {
	tr := New(6)
	const n = 500
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, val(i))
	}
	for i := uint64(0); i < n; i++ {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) missing", i)
		}
		if i%37 == 0 {
			checkTree(t, tr)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after full delete", tr.Len())
	}
	checkTree(t, tr)
}

func TestDeleteDescending(t *testing.T) {
	tr := New(6)
	const n = 500
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, val(i))
	}
	for i := int(n) - 1; i >= 0; i-- {
		if !tr.Delete(uint64(i)) {
			t.Fatalf("Delete(%d) missing", i)
		}
		if i%41 == 0 {
			checkTree(t, tr)
		}
	}
	checkTree(t, tr)
}

func TestDeleteMissing(t *testing.T) {
	tr := New(8)
	for i := uint64(0); i < 100; i += 2 {
		tr.Insert(i, val(i))
	}
	for i := uint64(1); i < 100; i += 2 {
		if tr.Delete(i) {
			t.Fatalf("Delete(%d) reported present", i)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestAscend(t *testing.T) {
	tr := New(8)
	keys := []uint64{9, 3, 7, 1, 5}
	for _, k := range keys {
		tr.Insert(k, val(k))
	}
	var got []uint64
	tr.Ascend(func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend order %v, want %v", got, want)
		}
	}
	// Early termination.
	count := 0
	tr.Ascend(func(uint64, []byte) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early-stop count = %d", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New(6)
	for i := uint64(0); i < 100; i++ {
		tr.Insert(i, val(i))
	}
	var got []uint64
	tr.AscendRange(25, 31, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 6 || got[0] != 25 || got[5] != 30 {
		t.Fatalf("range = %v", got)
	}
	// Empty range.
	got = nil
	tr.AscendRange(200, 300, func(k uint64, v []byte) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 0 {
		t.Fatalf("empty range returned %v", got)
	}
}

// Model-based random operation test: the tree must agree with a map
// reference under a long random mixed workload, with invariants intact
// throughout.
func TestRandomOpsAgainstModel(t *testing.T) {
	for _, order := range []int{4, 5, 8, 33, DefaultOrder} {
		t.Run(fmt.Sprintf("order%d", order), func(t *testing.T) {
			tr := New(order)
			model := make(map[uint64][]byte)
			rng := rand.New(rand.NewSource(int64(order)))
			const (
				ops      = 20000
				keySpace = 800
			)
			for i := 0; i < ops; i++ {
				k := uint64(rng.Intn(keySpace))
				switch rng.Intn(4) {
				case 0: // insert
					v := val(rng.Uint64())
					_, existed := model[k]
					if added := tr.Insert(k, v); added == existed {
						t.Fatalf("op %d: Insert(%d) added=%v, model existed=%v", i, k, added, existed)
					}
					model[k] = v
				case 1: // delete
					_, existed := model[k]
					if removed := tr.Delete(k); removed != existed {
						t.Fatalf("op %d: Delete(%d) removed=%v, model existed=%v", i, k, removed, existed)
					}
					delete(model, k)
				case 2: // update
					v := val(rng.Uint64())
					_, existed := model[k]
					if updated := tr.Update(k, v); updated != existed {
						t.Fatalf("op %d: Update(%d) = %v, model existed=%v", i, k, updated, existed)
					}
					if existed {
						model[k] = v
					}
				case 3: // get
					want, existed := model[k]
					got, ok := tr.Get(k)
					if ok != existed || (existed && !bytes.Equal(got, want)) {
						t.Fatalf("op %d: Get(%d) = %v,%v, want %v,%v", i, k, got, ok, want, existed)
					}
				}
				if i%2500 == 0 {
					checkTree(t, tr)
				}
			}
			checkTree(t, tr)
			if tr.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
			}
			// Full scan agreement.
			seen := 0
			tr.Ascend(func(k uint64, v []byte) bool {
				want, ok := model[k]
				if !ok || !bytes.Equal(v, want) {
					t.Fatalf("scan: key %d = %v, model %v,%v", k, v, want, ok)
				}
				seen++
				return true
			})
			if seen != len(model) {
				t.Fatalf("scan saw %d, model %d", seen, len(model))
			}
		})
	}
}

// Property-based: insert a random key set, then every key is readable
// and the scan is sorted.
func TestInsertedKeysReadableQuick(t *testing.T) {
	f := func(keys []uint64) bool {
		tr := New(16)
		set := make(map[uint64]bool)
		for _, k := range keys {
			tr.Insert(k, val(k))
			set[k] = true
		}
		if tr.Len() != len(set) {
			return false
		}
		for k := range set {
			v, ok := tr.Get(k)
			if !ok || !bytes.Equal(v, val(k)) {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: deleting half the keys leaves exactly the other half.
func TestDeleteHalfQuick(t *testing.T) {
	f := func(keys []uint64) bool {
		tr := New(8)
		set := make(map[uint64]bool)
		for _, k := range keys {
			tr.Insert(k, val(k))
			set[k] = true
		}
		i := 0
		for k := range set {
			if i%2 == 0 {
				if !tr.Delete(k) {
					return false
				}
				delete(set, k)
			}
			i++
		}
		if tr.Len() != len(set) {
			return false
		}
		for k := range set {
			if _, ok := tr.Get(k); !ok {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeTree(t *testing.T) {
	if testing.Short() {
		t.Skip("large tree in -short mode")
	}
	tr := New(DefaultOrder)
	const n = 200000
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(n)
	for _, k := range perm {
		tr.Insert(uint64(k), val(uint64(k)))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	checkTree(t, tr)
	for _, k := range perm[:n/2] {
		if !tr.Delete(uint64(k)) {
			t.Fatalf("Delete(%d)", k)
		}
	}
	checkTree(t, tr)
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestMinimumOrderRaised(t *testing.T) {
	tr := New(1)
	for i := uint64(0); i < 100; i++ {
		tr.Insert(i, val(i))
	}
	checkTree(t, tr)
}

// BenchmarkBTree measures the storage engine alone at the paper's
// key-value scale (1M preloaded keys, 8-byte values): context for the
// absolute throughput of the replicated system.
func BenchmarkBTree(b *testing.B) {
	preload := func() *Tree {
		tr := New(DefaultOrder)
		for i := uint64(0); i < 1_000_000; i++ {
			tr.Insert(i, []byte("12345678"))
		}
		return tr
	}
	b.Run("get", func(b *testing.B) {
		tr := preload()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Get(12345)
		}
	})
	b.Run("update", func(b *testing.B) {
		tr := preload()
		value := []byte("87654321")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Update(54321, value)
		}
	})
	b.Run("insert-delete", func(b *testing.B) {
		tr := preload()
		value := []byte("12345678")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := uint64(2_000_000 + i%100_000)
			tr.Insert(key, value)
			tr.Delete(key)
		}
	})
}
