package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// tol is the balance tolerance every workload runs with (the paper's 5%).
const tol = 0.05

// checkPartition verifies one timed call's output: one label in [0,k) per
// vertex, a reported cut and max imbalance equal to a recomputation, and an
// imbalance within 1+tol. Any error counts the call as failed.
func checkPartition(g *graph.Graph, k int, labels []int32, cut int64, imbalance float64) error {
	if len(labels) != g.NumVertices() {
		return fmt.Errorf("%d labels for %d vertices", len(labels), g.NumVertices())
	}
	for v, l := range labels {
		if l < 0 || int(l) >= k {
			return fmt.Errorf("vertex %d has label %d outside [0,%d)", v, l, k)
		}
	}
	if c := metrics.EdgeCut(g, labels); c != cut {
		return fmt.Errorf("reported cut %d, recomputed %d", cut, c)
	}
	im := metrics.MaxImbalance(g, labels, k)
	if im != imbalance {
		return fmt.Errorf("reported imbalance %v, recomputed %v", imbalance, im)
	}
	if im > 1+tol {
		return fmt.Errorf("imbalance %v exceeds 1+%v", im, tol)
	}
	return nil
}

// labelHash fingerprints a label vector, so repeated calls with one seed
// can be compared without keeping every vector.
func labelHash(labels []int32) [32]byte {
	b := make([]byte, 4*len(labels))
	for i, l := range labels {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(l))
	}
	return sha256.Sum256(b)
}

// seedCheck remembers the first output of every seed and rejects a later
// call with the same seed whose labels differ: the partitioner is
// deterministic in its seed.
type seedCheck struct {
	hash map[uint64][32]byte
	cut  map[uint64]int64
}

func newSeedCheck() *seedCheck {
	return &seedCheck{hash: map[uint64][32]byte{}, cut: map[uint64]int64{}}
}

func (s *seedCheck) add(seed uint64, labels []int32, cut int64) error {
	h := labelHash(labels)
	if prev, ok := s.hash[seed]; ok {
		if prev != h {
			return fmt.Errorf("seed %d: labels differ from the seed's first call", seed)
		}
		return nil
	}
	s.hash[seed], s.cut[seed] = h, cut
	return nil
}

// meanCut is the mean cut over the given seeds that produced an output.
func (s *seedCheck) meanCut(seeds []uint64) float64 {
	var sum, n float64
	for _, seed := range seeds {
		if c, ok := s.cut[seed]; ok {
			sum += float64(c)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}
