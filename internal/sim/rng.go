package sim

import (
	"math/rand"
	"sync"
)

// RNG is a deterministic, concurrency-safe random stream. Every stochastic
// component in the repository (solvers, sensor noise, fault injection,
// device jitter) draws from an RNG derived from the experiment seed, so that
// a whole experiment is reproducible bit-for-bit from a single integer.
//
// The stream is exactly math/rand's: NewRNG(seed) returns, call for call, the
// values rand.New(rand.NewSource(seed)) would. Its source is a block-buffered
// copy of math/rand's generator, so the normal sampler can read a block of
// draws directly; the other methods go through a *rand.Rand over the same
// source and so stay in step with it.
type RNG struct {
	mu  sync.Mutex
	src *lagSource
	r   *rand.Rand // over src
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	src := newLagSource(seed)
	return &RNG{src: src, r: rand.New(src)}
}

// Derive returns a new independent stream deterministically derived from this
// one and a label. Component i of a system should derive its stream once at
// construction; the order of later draws in other components then cannot
// perturb it.
func (g *RNG) Derive(label string) *RNG {
	g.mu.Lock()
	defer g.mu.Unlock()
	seed := g.r.Int63()
	for _, b := range []byte(label) {
		seed = seed*1099511628211 + int64(b) // FNV-style fold of the label
	}
	return NewRNG(seed)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Float64()
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Intn(n)
}

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Int63()
}

// NormFloat64 returns a standard normal deviate.
func (g *RNG) NormFloat64() float64 {
	var v [1]float64
	g.NormFloat64Fill(v[:])
	return v[0]
}

// Normal returns a normal deviate with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.NormFloat64()
}

// NormFloat64Fill fills dst with standard normal deviates, taking the stream
// lock once for the whole batch and running the ziggurat fast path over the
// source's buffered block. The values are exactly the ones len(dst)
// consecutive NormFloat64 calls would return, so batching a hot loop's draws
// does not perturb the stream.
func (g *RNG) NormFloat64Fill(dst []float64) {
	g.mu.Lock()
	g.src.normFill(dst)
	g.mu.Unlock()
}

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
// It is used to perturb modeled action durations.
func (g *RNG) Jitter(base float64, frac float64) float64 {
	if frac <= 0 {
		return base
	}
	return base * g.Uniform(1-frac, 1+frac)
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Perm(n)
}

// Shuffle permutes n elements using the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.r.Shuffle(n, swap)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.Float64() < p
}
