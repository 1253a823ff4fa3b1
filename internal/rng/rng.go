// Package rng provides a small, deterministic, allocation-free pseudo-random
// number generator used throughout the partitioner.
//
// The partitioning algorithms of both the serial (SC'98) and parallel
// (Euro-Par 2000) papers are randomized: vertices are visited in random
// order during matching and refinement, initial-partitioning seeds are
// random, and the parallel refinement algorithm disallows a random subset of
// proposed moves. Reproducing the papers' experiments requires that a given
// seed yield the same partitioning on every run and every platform, so the
// package implements its own generator (splitmix64 for stream derivation and
// xoshiro256** for bulk generation) instead of depending on math/rand, whose
// sequence is not guaranteed to be stable across Go releases.
package rng

import (
	"math/bits"
	"sync/atomic"
)

// splitmix64 advances a 64-bit state and returns the next output of the
// SplitMix64 sequence. It is used to seed the main generator and to derive
// independent per-rank streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, as recommended by
// the xoshiro authors.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the deterministic state derived from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not be seeded with an all-zero state; SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Derive returns a new generator whose stream is a deterministic function of
// the parent seed and the given stream index. It is used to give each
// simulated processor an independent stream from a single experiment seed.
func (r *RNG) Derive(stream uint64) *RNG {
	base := r.s[0] ^ (r.s[2] << 1)
	return New(base ^ (stream+1)*0xd1342543de82ef95)
}

// ForkInto seeds dst with an independent stream derived from one draw of r
// and the stream index. Unlike Derive, Fork consumes a draw from the parent,
// so successive fork batches (e.g. the per-trial streams of consecutive
// bisection nodes) differ even when they reuse the same stream indices. The
// forked stream depends only on the parent's state and the index — never on
// which goroutine consumes it — which is what makes concurrent
// initial-bisection trials schedule-independent. dst is reseeded in place so
// hot paths can keep generators resident instead of allocating per fork.
func (r *RNG) ForkInto(dst *RNG, stream uint64) {
	dst.Seed(r.Uint64() ^ (stream+1)*0xd1342543de82ef95)
}

// Fork returns a fresh generator seeded as by ForkInto.
func (r *RNG) Fork(stream uint64) *RNG {
	dst := &RNG{}
	r.ForkInto(dst, stream)
	return dst
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

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Int31n returns a uniform int32 in [0, n).
func (r *RNG) Int31n(n int32) int32 {
	return int32(r.Intn(int(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm fills p with a uniformly random permutation of [0, len(p)).
func (r *RNG) Perm(p []int32) { r.PermUntil(p, nil) }

// PermUntil is Perm for a producer that may be told to give up: once stop
// (when non-nil) reads true it abandons the permutation and returns false,
// leaving p and r in unspecified states. It polls stop before starting and
// every permPoll swaps. A call that returns true has drawn exactly what Perm
// draws.
func (r *RNG) PermUntil(p []int32, stop *atomic.Bool) bool {
	if stop != nil && stop.Load() {
		return false
	}
	for i := range p {
		p[i] = int32(i)
	}
	return r.shuffle(p, stop)
}

// permPoll is PermUntil's polling interval in swaps (a power of two):
// about 65 µs of shuffling at n = 1M, so a producer told to stop returns
// long before the consumer would notice.
const permPoll = 1 << 12

// Shuffle permutes p uniformly at random (Fisher-Yates).
func (r *RNG) Shuffle(p []int32) { r.shuffle(p, nil) }

func (r *RNG) shuffle(p []int32, stop *atomic.Bool) bool {
	for i := len(p) - 1; i > 0; i-- {
		if stop != nil && i&(permPoll-1) == 0 && stop.Load() {
			return false
		}
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return true
}

// Bool returns true with probability 1/2.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }
