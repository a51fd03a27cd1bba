// Package workload generates the evaluation's inputs: key-selection
// distributions (uniform and Zipfian with exponent 1, as in paper
// §VII-G) and command mixes over the key-value store. The load driver
// that issues them is benchmark/loadgen.go.
package workload

import (
	"math"
	"math/rand"
)

// KeyGen draws keys from a key space.
type KeyGen interface {
	// Key draws the next key using the caller's rng (generators are
	// stateless and shareable; rngs are per goroutine).
	Key(rng *rand.Rand) uint64
}

// Uniform selects keys uniformly from [0, N).
type Uniform struct {
	// N is the key-space size.
	N uint64
}

// Key implements KeyGen.
func (u Uniform) Key(rng *rand.Rand) uint64 {
	return uint64(rng.Int63n(int64(u.N)))
}

// Zipf samples ranks from a Zipf distribution with arbitrary exponent
// s >= 0 over {0..n-1} (rank 0 most popular) using Hörmann &
// Derflinger's rejection-inversion method. Unlike math/rand's Zipf it
// supports s = 1, the exponent the paper uses.
type Zipf struct {
	n             uint64
	s             float64
	hx1, hn, sCut float64
}

// NewZipf builds a sampler over {0..n-1} with exponent s (s = 0 is
// uniform, s = 1 is the paper's skew).
func NewZipf(s float64, n uint64) *Zipf {
	if n == 0 {
		n = 1
	}
	z := &Zipf{n: n, s: s}
	z.hx1 = z.hIntegral(1.5) - 1
	z.hn = z.hIntegral(float64(n) + 0.5)
	z.sCut = 2 - z.hIntegralInverse(z.hIntegral(2.5)-z.h(2))
	return z
}

// Key implements KeyGen: it returns rank-1 in [0, n).
func (z *Zipf) Key(rng *rand.Rand) uint64 {
	for {
		u := z.hn + rng.Float64()*(z.hx1-z.hn)
		x := z.hIntegralInverse(u)
		k := math.Round(x)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sCut || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// h is the unnormalised density x^-s.
func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.s * math.Log(x))
}

// hIntegral is ∫h: (x^(1-s)-1)/(1-s), with the logarithmic branch at
// s=1.
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2((1-z.s)*logX) * logX
}

// hIntegralInverse inverts hIntegral.
func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * (1 - z.s)
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a stable series near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1/3.0-x*0.25))
}

// helper2 computes expm1(x)/x with a stable series near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1/3.0)*(1+x*0.25))
}
