// Package rng provides a small deterministic pseudo-random number
// generator (PCG-XSH-RR 64/32) plus the distributions the workload models
// need. Every simulation component draws from an explicitly seeded Source
// so runs are reproducible; nothing in atcsched touches math/rand's global
// state.
package rng

import "math"

// Source is a PCG-XSH-RR 64/32 generator. The zero value is usable but
// every caller should prefer New with an explicit seed.
type Source struct {
	state uint64
	inc   uint64
}

const (
	pcgMultiplier = 6364136223846793005
	pcgIncrement  = 1442695040888963407
)

// New returns a Source seeded with seed. Distinct seeds yield independent
// streams for practical purposes.
func New(seed uint64) *Source {
	s := &Source{inc: pcgIncrement | 1}
	s.state = 0
	s.next()
	s.state += SplitMix64(seed)
	s.next()
	return s
}

// NewStream returns a Source with an independent stream selected by
// stream, useful for giving each simulated entity its own generator
// derived from one experiment seed.
func NewStream(seed, stream uint64) *Source {
	s := Stream(seed, stream)
	return &s
}

// Stream returns NewStream's generator by value, for callers that keep
// it inside a reused struct instead of allocating one per reseed.
func Stream(seed, stream uint64) Source {
	s := Source{inc: (SplitMix64(stream^0x9e3779b97f4a7c15) << 1) | 1}
	s.next()
	s.state += SplitMix64(seed)
	s.next()
	return s
}

// SplitMix64 is the SplitMix64 finalizer: a bijective 64-bit mix.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *Source) next() uint32 {
	old := s.state
	s.state = old*pcgMultiplier + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint32 returns a uniformly distributed 32-bit value.
func (s *Source) Uint32() uint32 { return s.next() }

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	return uint64(s.next())<<32 | uint64(s.next())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint32(n)
	threshold := -bound % bound
	for {
		r := s.next()
		m := uint64(r) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box–Muller, one value per call).
func (s *Source) Normal(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Jitter returns a value drawn uniformly from
// [mean*(1-frac), mean*(1+frac)], a cheap way to de-synchronize otherwise
// identical workload phases. frac must be in [0, 1].
func (s *Source) Jitter(mean, frac float64) float64 {
	if frac < 0 || frac > 1 {
		panic("rng: Jitter fraction out of [0,1]")
	}
	return mean * (1 + frac*(2*s.Float64()-1))
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a pseudo-random index weighted by weights. It panics on
// an empty or non-positive-sum weight vector.
func (s *Source) Choice(weights []float64) int {
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		sum += w
	}
	if len(weights) == 0 || sum <= 0 {
		panic("rng: Choice needs positive total weight")
	}
	x := s.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
