package main

import "math"

// splitmix is the SplitMix64 generator (Steele, Lea & Flood). The
// benchmark owns its copy so that a change to internal/xrand cannot
// change the inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	return mix64(uint64(*s))
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// mix64 is SplitMix64's output function: a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// valueOf is the value every cache and map entry carries: a function of
// the key, so any value read back can be checked without a shadow copy.
func valueOf(k uint64) uint64 { return mix64(k ^ 0xC0FFEE) }

// slowValue is the cache loader's work: 200 SplitMix64 rounds standing
// in for a backing-store read, then valueOf(k). The rounds are stored
// through sink so the compiler keeps them.
func slowValue(k uint64, sink *uint64) uint64 {
	x := k
	for i := 0; i < 200; i++ {
		x = mix64(x + 0x9E3779B97F4A7C15)
	}
	*sink = x
	return valueOf(k)
}

// streamSeed derives the generator state of one key stream from the run
// seed and the stream's coordinates, so streams are independent and
// every one is reproducible on its own.
func streamSeed(seed uint64, workload string, trial, g int) splitmix {
	h := seed
	for i := 0; i < len(workload); i++ {
		h = mix64(h ^ uint64(workload[i]))
	}
	h = mix64(h ^ uint64(trial)<<32 ^ uint64(g))
	return splitmix(h)
}

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^theta, by the
// closed-form inversion of Gray et al. that YCSB uses. n must be a
// power of two: key() scatters ranks over the key space with an odd
// multiplier, which is a bijection only then.
type zipf struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, zetan: zeta(n)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) rank(r *splitmix) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// keyOfRank maps a popularity rank to its key: hot keys are spread over
// the key space (and so over cache shards) instead of being 0, 1, 2, …
func (z *zipf) keyOfRank(rank uint64) uint64 { return rank * 0x9E3779B1 & (z.n - 1) }

func (z *zipf) key(r *splitmix) uint64 { return z.keyOfRank(z.rank(r)) }
