package coarsen

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/rng"
)

// Kernel-level pins of the parallel-coarsening determinism contract: each
// parallel kernel, fed the same graph and RNG stream as its sequential
// twin, must return exactly the same bytes — match arrays, cmaps, and
// coarse CSR graphs — for every worker count. The full-pipeline property
// lives in the root coarsen_workers_test.go; these tests isolate one
// kernel each so a violation names the culprit directly. All graphs here
// are far below minParallelN, which the kernels themselves do not consult
// (only BuildHierarchy gates on it), so the parallel code paths are
// exercised at sizes where failures are diffable.

var kernelWorkerCounts = []int{2, 3, 4, 8}

func graphsEqual(a, b *graph.Graph) error {
	if a.Ncon != b.Ncon {
		return fmt.Errorf("ncon %d vs %d", a.Ncon, b.Ncon)
	}
	if err := sliceEq("xadj", a.Xadj, b.Xadj); err != nil {
		return err
	}
	if err := sliceEq("adjncy", a.Adjncy, b.Adjncy); err != nil {
		return err
	}
	if err := sliceEq("adjwgt", a.Adjwgt, b.Adjwgt); err != nil {
		return err
	}
	return sliceEq("vwgt", a.Vwgt, b.Vwgt)
}

func sliceEq(name string, a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d] = %d vs %d", name, i, a[i], b[i])
		}
	}
	return nil
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// kernelGraphs is the test matrix: a single-constraint mesh (the propose
// fast path), a multi-constraint mesh (the generic jaggedness tie-break
// path), and a power-law graph (hub-degree propose ranges, the rescan
// stress case).
func kernelGraphs(t *testing.T) []namedGraph {
	t.Helper()
	return []namedGraph{
		{"mesh-m1", gen.MRNGLike(10, 10, 10, 7)},
		{"mesh-m3", randomMesh(t, 3, 7)},
		{"powerlaw", gen.PowerLaw(3000, 8, 2.5, 11)},
	}
}

// matchSeqRef is the SC'98 sequential heavy-edge matching loop, kept as
// the independent oracle for the propose/commit kernel: visit vertices in
// one random permutation and match each unmatched one to its best
// unmatched neighbor, judged on the live match array.
func matchSeqRef(g *graph.Graph, rand *rng.RNG, opt Options) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := make([]int32, n)
	rand.Perm(order)
	combined := make([]int64, g.Ncon)
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		adj, wgt := g.Neighbors(v)
		vw := g.VertexWeight(v)
		best := int32(-1)
		bestW := int32(-1)
		bestJag := 0.0
		for i, u := range adj {
			if match[u] >= 0 || u == v {
				continue
			}
			if opt.MaxVertexWeight > 0 && !fitsCap(vw, g.VertexWeight(u), opt.MaxVertexWeight) {
				continue
			}
			switch {
			case wgt[i] > bestW:
				best, bestW = u, wgt[i]
				if opt.BalancedEdge {
					bestJag = combinedJaggedness(combined, vw, g.VertexWeight(u))
				}
			case wgt[i] == bestW && opt.BalancedEdge:
				if j := combinedJaggedness(combined, vw, g.VertexWeight(u)); j < bestJag {
					best, bestJag = u, j
				}
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	return match
}

// TestMatchParMatchesSequential pins the propose/commit kernel, inline on
// one worker (Match) and on pools of every size, against the sequential
// oracle, and checks the oracle and Match leave the RNG stream in the same
// state.
func TestMatchParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		for _, balanced := range []bool{false, true} {
			for _, maxW := range []int64{0, 40} {
				opt := Options{BalancedEdge: balanced, MaxVertexWeight: maxW}
				refRand, matchRand := rng.New(42), rng.New(42)
				want := matchSeqRef(g, refRand, opt)
				if err := sliceEq("match", Match(g, matchRand, opt), want); err != nil {
					t.Errorf("%s inline balanced=%v maxW=%d: %v", name, balanced, maxW, err)
				}
				if a, b := refRand.Uint64(), matchRand.Uint64(); a != b {
					t.Errorf("%s balanced=%v maxW=%d: RNG stream after Match diverges from the oracle", name, balanced, maxW)
				}
				for _, w := range kernelWorkerCounts {
					ps := newPscratch(w, g.Ncon)
					got, chunks, _ := matchInto(g, rng.New(42), opt, newScratch(g.NumVertices(), g.Ncon), ps)
					if chunks < 1 {
						t.Errorf("%s workers=%d: no chunks ran", name, w)
					}
					if err := sliceEq("match", got, want); err != nil {
						t.Errorf("%s workers=%d balanced=%v maxW=%d: %v", name, w, balanced, maxW, err)
					}
					ps.close()
				}
			}
		}
	}
}

func TestContractParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		match := Match(g, rng.New(42), Options{BalancedEdge: true, MaxVertexWeight: 60})
		wantG, wantCmap := Contract(g, match)
		for _, w := range kernelWorkerCounts {
			ps := newPscratch(w, g.Ncon)
			gotG, gotCmap := contractParInto(g, match, ps, nil)
			if err := sliceEq("cmap", gotCmap, wantCmap); err != nil {
				t.Errorf("%s workers=%d: %v", name, w, err)
			}
			if err := graphsEqual(gotG, wantG); err != nil {
				t.Errorf("%s workers=%d: coarse graph: %v", name, w, err)
			}
			ps.close()
		}
	}
}

func TestContractMapParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		caps := make([]int64, g.Ncon)
		for c, tot := range g.TotalVertexWeight() {
			caps[c] = 1 + tot/16
		}
		cmap, nc := lp.Cluster(g, rng.New(9), lp.Options{MaxClusterWeight: caps})
		want := ContractMap(g, cmap, nc)
		for _, w := range kernelWorkerCounts {
			ps := newPscratch(w, g.Ncon)
			got := contractMapParInto(g, cmap, nc, newScratch(g.NumVertices(), g.Ncon), ps, nil)
			if err := graphsEqual(got, want); err != nil {
				t.Errorf("%s workers=%d: coarse graph: %v", name, w, err)
			}
			ps.close()
		}
	}
}

// TestLPClusterParMatchesSequential pins the LP propose/commit rounds
// against the sequential pass on the clustering's own output (cmap and
// cluster count), per worker count, with and without weight caps.
func TestLPClusterParMatchesSequential(t *testing.T) {
	for _, kg := range kernelGraphs(t) {
		name, g := kg.name, kg.g
		for _, withCaps := range []bool{false, true} {
			var caps []int64
			if withCaps {
				caps = make([]int64, g.Ncon)
				for c, tot := range g.TotalVertexWeight() {
					caps[c] = 1 + tot/16
				}
			}
			wantCmap, wantNC := lp.Cluster(g, rng.New(5), lp.Options{MaxClusterWeight: caps})
			for _, w := range kernelWorkerCounts {
				pool := newPscratch(w, g.Ncon)
				gotCmap, gotNC := lp.Cluster(g, rng.New(5), lp.Options{MaxClusterWeight: caps, Pool: pool.pool})
				if gotNC != wantNC {
					t.Errorf("%s workers=%d caps=%v: nc = %d, want %d", name, w, withCaps, gotNC, wantNC)
				}
				if err := sliceEq("cmap", gotCmap, wantCmap); err != nil {
					t.Errorf("%s workers=%d caps=%v: %v", name, w, withCaps, err)
				}
				pool.close()
			}
		}
	}
}

// TestBuildHierarchyWorkersInvariant runs the whole coarsening stack — the
// only place minParallelN, pooled scratch reuse across levels, and the
// scheme dispatch compose — and requires identical hierarchies per worker
// count, for both schemes.
func TestBuildHierarchyWorkersInvariant(t *testing.T) {
	// Both graphs start above minParallelN so at least the finest levels
	// take the parallel kernels before the gate falls back to sequential.
	graphs := []namedGraph{
		{"mesh-m3", gen.Type1(gen.MRNGLike(16, 16, 16, 3), 3, 3)},
		{"powerlaw", gen.PowerLaw(6000, 8, 2.5, 13)},
	}
	for _, kg := range graphs {
		name, g := kg.name, kg.g
		for _, scheme := range []Scheme{SchemeMatching, SchemeCluster} {
			want := BuildHierarchy(g, 64, rng.New(2), Options{Scheme: scheme, Tol: 0.05, BalancedEdge: true})
			for _, w := range []int{2, 4} {
				got := BuildHierarchy(g, 64, rng.New(2), Options{Scheme: scheme, Tol: 0.05, BalancedEdge: true, Workers: w})
				if len(got) != len(want) {
					t.Errorf("%s scheme=%v workers=%d: %d levels, want %d", name, scheme, w, len(got), len(want))
					continue
				}
				for i := range got {
					if err := graphsEqual(got[i].Graph, want[i].Graph); err != nil {
						t.Errorf("%s scheme=%v workers=%d level %d: %v", name, scheme, w, i, err)
					}
					if i > 0 {
						if err := sliceEq("cmap", got[i].CMap, want[i].CMap); err != nil {
							t.Errorf("%s scheme=%v workers=%d level %d: %v", name, scheme, w, i, err)
						}
					}
				}
			}
		}
	}
}
