package workload

import (
	"math"
	"math/rand"
	"testing"

	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
)

func TestUniformCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := Uniform{N: 10}
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := gen.Key(rng)
		if k >= 10 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	for k, c := range counts {
		if c < draws/10-draws/50 || c > draws/10+draws/50 {
			t.Fatalf("key %d drawn %d times, want ~%d", k, c, draws/10)
		}
	}
}

// The Zipf sampler must reproduce the analytic rank probabilities
// p(r) = r^-s / H(n,s).
func TestZipfDistribution(t *testing.T) {
	for _, s := range []float64{0.5, 1.0, 1.5} {
		const n = 100
		z := NewZipf(s, n)
		rng := rand.New(rand.NewSource(7))
		const draws = 400000
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			k := z.Key(rng)
			if k >= n {
				t.Fatalf("s=%v: key %d out of range", s, k)
			}
			counts[k]++
		}
		var hns float64
		for r := 1; r <= n; r++ {
			hns += math.Pow(float64(r), -s)
		}
		// Check the head ranks tightly and a tail rank loosely.
		for _, rank := range []int{1, 2, 3, 10, 50} {
			want := math.Pow(float64(rank), -s) / hns
			got := float64(counts[rank-1]) / draws
			if math.Abs(got-want) > 0.15*want+0.001 {
				t.Fatalf("s=%v rank %d: got %.5f, want %.5f", s, rank, got, want)
			}
		}
	}
}

func TestZipfExponentOneHeadHeaviness(t *testing.T) {
	// With s=1 over 1000 keys, rank 1 receives about 1/H(1000) ≈ 13.4%
	// of accesses — the skew driving the paper's Figure 7.
	z := NewZipf(1.0, 1000)
	rng := rand.New(rand.NewSource(3))
	const draws = 200000
	top := 0
	for i := 0; i < draws; i++ {
		if z.Key(rng) == 0 {
			top++
		}
	}
	frac := float64(top) / draws
	if frac < 0.10 || frac > 0.17 {
		t.Fatalf("rank-1 fraction = %.4f, want ≈ 0.134", frac)
	}
}

func TestZipfSingleKey(t *testing.T) {
	z := NewZipf(1.0, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if z.Key(rng) != 0 {
			t.Fatal("n=1 must always return key 0")
		}
	}
	// n=0 is normalised to 1 rather than panicking.
	z0 := NewZipf(1.0, 0)
	if z0.Key(rng) != 0 {
		t.Fatal("n=0 normalised sampler returned nonzero")
	}
}

func TestMixWeights(t *testing.T) {
	mix := NewMix(
		MixEntry{Weight: 3, Make: func(*rand.Rand) Op { return Op{Cmd: 1} }},
		MixEntry{Weight: 1, Make: func(*rand.Rand) Op { return Op{Cmd: 2} }},
		MixEntry{Weight: 0, Make: func(*rand.Rand) Op { return Op{Cmd: 3} }},
	)
	rng := rand.New(rand.NewSource(1))
	counts := make(map[command.ID]int)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[mix.Next(rng).Cmd]++
	}
	if counts[3] != 0 {
		t.Fatal("zero-weight entry drawn")
	}
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestKVGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	keys := Uniform{N: 50}

	op := KVReads(keys).Next(rng)
	if op.Cmd != kvstore.CmdRead || len(op.Input) != 8 {
		t.Fatalf("read op: %+v", op)
	}
	op = KVUpdates(keys).Next(rng)
	if op.Cmd != kvstore.CmdUpdate || len(op.Input) != 16 {
		t.Fatalf("update op: %+v", op)
	}
}
