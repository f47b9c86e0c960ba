// Package randutil provides seeded pseudo-random helpers used throughout the
// simulation: jittered latency distributions, Zipf-like skew for workload
// generators, and reproducible per-component RNG forking.
package randutil

import (
	"math"
	"math/rand"
	"time"
)

// NewRand returns a rand.Rand with the given seed. All simulation components
// receive their RNG explicitly so experiments are reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Fork derives a new independent RNG from r. The child stream is decorrelated
// from subsequent draws on r.
func Fork(r *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(r.Int63()))
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac]. frac is
// clamped to [0, 1]. A zero or negative duration is returned unchanged.
func Jitter(r *rand.Rand, d time.Duration, frac float64) time.Duration {
	if d <= 0 {
		return d
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	scale := 1 + frac*(2*r.Float64()-1)
	return time.Duration(float64(d) * scale)
}

// LogNormal returns a duration drawn from a log-normal distribution with the
// given median and sigma (the shape parameter of the underlying normal).
// Latency distributions in real systems are heavy-tailed; the cold-start
// prober and network model use this.
func LogNormal(r *rand.Rand, median time.Duration, sigma float64) time.Duration {
	if median <= 0 {
		return 0
	}
	mu := math.Log(float64(median))
	x := math.Exp(mu + sigma*r.NormFloat64())
	return time.Duration(x)
}

// Zipf generates values in [0, n) with a Zipfian skew parameterized by theta
// in (0, 1). theta near 1 is highly skewed. This is the classic YCSB
// generator (Gray et al.'s method).
type Zipf struct {
	r     *rand.Rand
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipf returns a Zipf generator over [0, n). theta must be in (0, 1);
// values outside are clamped to 0.99 (skewed) or 0.01.
func NewZipf(r *rand.Rand, n uint64, theta float64) *Zipf {
	if n == 0 {
		n = 1
	}
	if theta <= 0 {
		theta = 0.01
	}
	if theta >= 1 {
		theta = 0.99
	}
	z := &Zipf{r: r, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// WeightedChoice picks an index from weights proportionally. Weights must be
// non-negative; if all are zero it returns 0.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// RandBytes fills a new slice of length n with printable pseudo-random bytes.
func RandBytes(r *rand.Rand, n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[r.Intn(len(alphabet))]
	}
	return b
}
