package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). Every stochastic component of the
// library takes an explicit *RNG so that experiments, tests and the
// Monte-Carlo harness are exactly reproducible from a seed. Only the
// operations the library needs are exposed.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into the 256-bit state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n ≤ 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive bound")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normal variate (Box–Muller polar form).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * sqrtNeg2LogOver(s)
		}
	}
}

func sqrtNeg2LogOver(s float64) float64 {
	// sqrt(-2 ln s / s), factored out to keep NormFloat64 readable.
	return math.Sqrt(-2 * math.Log(s) / s)
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf draws from a Zipf(θ) distribution over ranks 1..n using inverse
// transform sampling on a precomputed CDF would need state; instead this
// uses rejection-free harmonic inversion which is O(log n) via binary search
// on the cached harmonic prefix of a ZipfGen. Use NewZipfGen for repeated
// draws over the same support.
type ZipfGen struct {
	cdf []float64
}

// NewZipfGen precomputes the CDF of a Zipf distribution with exponent theta
// over ranks 1..n: P(rank=k) ∝ 1/k^θ.
func NewZipfGen(n int, theta float64) *ZipfGen {
	if n <= 0 {
		panic("stats: ZipfGen with non-positive support")
	}
	cdf := make([]float64, n)
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), theta)
		cdf[k-1] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	cdf[n-1] = 1 // guard against rounding
	return &ZipfGen{cdf: cdf}
}

// N returns the size of the support.
func (z *ZipfGen) N() int { return len(z.cdf) }

// Draw returns a rank in [1, n] with Zipf-distributed probability.
func (z *ZipfGen) Draw(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// PMF returns the probability of rank k (1-based).
func (z *ZipfGen) PMF(k int) float64 {
	if k < 1 || k > len(z.cdf) {
		return 0
	}
	if k == 1 {
		return z.cdf[0]
	}
	return z.cdf[k-1] - z.cdf[k-2]
}
