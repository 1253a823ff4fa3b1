package kwayrefine

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/vecw"
)

// The boundary refinement contract (DESIGN.md): the boundary-driven refiner
// with its incremental gain cache, connectivity-row cache and idle skip is
// pinned BIT-IDENTICAL to the full-scan oracle below — same final labels,
// same cut, same move count — for every graph, constraint count, k,
// tolerance, seed, and pass budget. Both consume the identical random
// permutation stream; only the skip test and the gain gathering differ, a
// cached row is only ever used when it provably equals a fresh adjacency
// scan, and a vertex is only skipped as idle when every gain is negative.

// fullScan is the bit-identity oracle: the pre-boundary refiner, which
// visits all n vertices every pass and re-derives each vertex's gain rows
// and internal degree from its adjacency list, consulting neither the
// boundary set, the row cache nor the refinement state. It shares setup,
// apply and the move rules with Refiner, so a divergence isolates the skip
// tests and the cached gathers.
type fullScan struct{ *Refiner }

func (f fullScan) Refine(g *graph.Graph, part []int32, rand *rng.RNG) int {
	f.setup(g, part)
	total := 0
	for pass := 0; pass < f.opt.Passes; pass++ {
		moves := 0
		if f.imbalanced() {
			moves += f.balancePass(g, part, rand)
		}
		moves += f.greedyPass(g, part, rand)
		total += moves
		if moves == 0 {
			break
		}
	}
	return total
}

func (f fullScan) Balance(g *graph.Graph, part []int32, rand *rng.RNG) int {
	f.setup(g, part)
	total := 0
	for pass := 0; pass < f.opt.Passes && f.imbalanced(); pass++ {
		moves := f.balancePass(g, part, rand)
		total += moves
		if moves == 0 {
			break
		}
	}
	return total
}

// gather loads v's gain rows into f.rows by scanning its adjacency list and
// returns its from-scratch internal degree and whether it is on the boundary.
func (f fullScan) gather(g *graph.Graph, part []int32, v int32) (id int64, boundary bool) {
	f.rows.Clear()
	a := part[v]
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		if b := part[u]; b != a {
			f.rows.Add(v, b, int64(wgt[i]))
		} else {
			id += int64(wgt[i])
		}
	}
	return id, len(f.rows.Touched()) > 0
}

func (f fullScan) greedyPass(g *graph.Graph, part []int32, rand *rng.RNG) int {
	rand.Perm(f.order)
	m := f.m
	moves := 0
	for _, v := range f.order {
		a := part[v]
		id, boundary := f.gather(g, part, v)
		if !boundary {
			continue
		}
		vw := g.VertexWeight(v)
		bestB := int32(-1)
		var bestGain int64
		bestBal := 0.0
		for _, b := range f.rows.Touched() {
			gain := f.rows.Weight(b) - id
			if gain < 0 || (bestB >= 0 && gain < bestGain) {
				continue
			}
			if !vecw.FitsUnder(f.pwgts[int(b)*m:(int(b)+1)*m], vw, f.limit[int(b)*m:(int(b)+1)*m]) {
				continue
			}
			bal := f.balanceDelta(a, b, vw)
			if gain == 0 && bal >= 0 && bestB < 0 {
				continue
			}
			if bestB < 0 || gain > bestGain || (gain == bestGain && bal < bestBal) {
				bestB, bestGain, bestBal = b, gain, bal
			}
		}
		if bestB >= 0 && bestB != a {
			f.apply(g, part, v, a, bestB, vw, bestGain)
			moves++
		}
	}
	return moves
}

func (f fullScan) balancePass(g *graph.Graph, part []int32, rand *rng.RNG) int {
	rand.Perm(f.order)
	m := f.m
	moves := 0
	for _, v := range f.order {
		a := part[v]
		if !vecw.AnyOver(f.pwgts[int(a)*m:(int(a)+1)*m], f.limit[int(a)*m:(int(a)+1)*m]) {
			continue
		}
		vw := g.VertexWeight(v)
		id, _ := f.gather(g, part, v)
		bestB := int32(-1)
		var bestGain int64
		bestBal := 0.0
		for _, b := range f.rows.Touched() {
			f.tryCandidate(a, b, vw, f.rows.Weight(b)-id, &bestB, &bestGain, &bestBal)
		}
		if bestB < 0 {
			for b := int32(0); int(b) < f.k; b++ {
				if b == a || f.rows.Marked(v, b) {
					continue
				}
				f.tryCandidate(a, b, vw, -id, &bestB, &bestGain, &bestBal)
			}
		}
		if bestB >= 0 {
			f.apply(g, part, v, a, bestB, vw, bestGain)
			moves++
			if !vecw.AnyOver(f.pwgts[int(a)*m:(int(a)+1)*m], f.limit[int(a)*m:(int(a)+1)*m]) &&
				!f.imbalanced() {
				break
			}
		}
	}
	return moves
}

// runBoth refines two copies of part with the boundary-driven refiner and
// the full-scan oracle under identical options and RNG streams, and fails
// the test on any divergence. It returns the refiner's idle-skip count, so
// grids can assert the idle path was exercised.
func runBoth(t *testing.T, tag string, g *graph.Graph, part []int32, k int, opt Options, seed uint64, balance bool) int64 {
	t.Helper()
	partA := append([]int32(nil), part...)
	partB := append([]int32(nil), part...)
	refA := NewRefiner(k, g.Ncon, opt)
	refB := fullScan{NewRefiner(k, g.Ncon, opt)}
	var mvA, mvB int
	if balance {
		mvA = refA.Balance(g, partA, rng.New(seed))
		mvB = refB.Balance(g, partB, rng.New(seed))
	} else {
		mvA = refA.Refine(g, partA, rng.New(seed))
		mvB = refB.Refine(g, partB, rng.New(seed))
	}
	if mvA != mvB {
		t.Errorf("%s: moves diverge: boundary-driven %d, full-scan %d", tag, mvA, mvB)
	}
	if cutA, cutB := refA.Cut(), refB.Cut(); cutA != cutB {
		t.Errorf("%s: tracked cut diverges: boundary-driven %d, full-scan %d", tag, cutA, cutB)
	}
	if cutA, want := refA.Cut(), metrics.EdgeCut(g, partA); cutA != want {
		t.Errorf("%s: tracked cut %d != recomputed cut %d", tag, cutA, want)
	}
	if err := refA.verifyState(g); err != nil {
		t.Errorf("%s: %v", tag, err)
	}
	for v := range partA {
		if partA[v] != partB[v] {
			t.Fatalf("%s: labels diverge first at vertex %d: boundary-driven %d, full-scan %d",
				tag, v, partA[v], partB[v])
		}
	}
	return refA.idleSkips
}

// TestBoundaryDrivenMatchesFullScan sweeps a (graph, m, k, tol, seed,
// passes) grid. The tight tolerance keeps balance passes interleaving with
// greedy passes, so idle vertices are demoted by balance moves as well as
// greedy ones; the power-law graph adds hubs whose moves demote many
// neighbors at once. Run under -race in CI; the graphs are kept modest for
// that.
func TestBoundaryDrivenMatchesFullScan(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mrng-10x10x10", gen.MRNGLike(10, 10, 10, 5)},
		{"mrng-16x8x6", gen.MRNGLike(16, 8, 6, 11)},
		{"plaw-1500", gen.PowerLaw(1500, 8, 2.2, 13)},
	}
	var idleSkips int64
	for _, gr := range graphs {
		for _, m := range []int{1, 2, 3} {
			g := gr.g
			if m > 1 {
				g = gen.Type1(gr.g, m, 17)
			}
			for _, k := range []int{4, 8} {
				part := initpart.RecursiveBisect(g, k, rng.New(2), initpart.Options{Tol: 0.05})
				for _, tol := range []float64{0.05, 0.01} {
					for _, seed := range []uint64{3, 101} {
						for _, passes := range []int{1, 3, 8} {
							tag := fmt.Sprintf("%s m=%d k=%d tol=%g seed=%d passes=%d",
								gr.name, m, k, tol, seed, passes)
							idleSkips += runBoth(t, tag, g, part, k, Options{Tol: tol, Passes: passes}, seed, false)
						}
					}
				}
			}
		}
	}
	if idleSkips == 0 {
		t.Error("no idle vertex was skipped anywhere in the grid: the idle path went untested")
	}
}

// TestBoundaryBalanceMatchesFullScan pins Balance on a skewed partition,
// which exercises the balance pass's interior-vertex path (cached id plus
// O(1) clean-row gathers; interior vertices stay eligible for balance moves).
func TestBoundaryBalanceMatchesFullScan(t *testing.T) {
	base := gen.MRNGLike(10, 10, 10, 5)
	for _, m := range []int{1, 3} {
		g := base
		if m > 1 {
			g = gen.Type1(base, m, 17)
		}
		part := initpart.RecursiveBisect(g, 8, rng.New(2), initpart.Options{Tol: 0.05})
		// Skew: pull ~1/7 of the other subdomains' vertices into part 0.
		r := rng.New(9)
		for v := range part {
			if part[v] != 0 && r.Intn(7) == 0 {
				part[v] = 0
			}
		}
		if imb := metrics.MaxImbalance(g, part, 8); imb < 1.10 {
			t.Fatalf("m=%d: injection too weak: %.3f", m, imb)
		}
		tag := fmt.Sprintf("balance m=%d", m)
		runBoth(t, tag, g, part, 8, Options{Tol: 0.05, Passes: 12}, 3, true)
	}
}

// TestIdleVertexWakesWhenNeighborMoves walks vertices through the idle
// life cycle on a hand-built graph: setup finds vertex 0 idle (its only
// gain is negative), a neighbor's move demotes it and vertex 3 back to
// stEvaluate, and the next greedy pass moves vertex 0, whose gain has
// turned positive, and marks vertex 3, whose gain is still negative, idle
// again.
//
// Part 0 = {0..6} starts at weight 7, over the limit of 6 (k=2, n=10), so
// no vertex can move into part 0 and the forced move of vertex 1 cannot be
// undone; part 1 = {7, 8, 9} has room for one more vertex after it.
func TestIdleVertexWakesWhenNeighborMoves(t *testing.T) {
	edges := [][2]int32{
		{0, 1}, {0, 2}, {0, 7}, // x = 0: id 2, one edge to part 1: gain -1
		{1, 2}, {1, 3}, {1, 8}, // y = 1: id 3, one edge to part 1: gain -2
		{2, 3}, {2, 4}, {3, 4}, {3, 5}, {4, 5}, {4, 6}, {5, 6},
		{7, 8}, {7, 9}, {8, 9},
	}
	b := graph.NewBuilder(10, 1)
	for v := int32(0); v < 10; v++ {
		b.SetVertexWeight(v, []int32{1})
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1], 1)
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	part := []int32{0, 0, 0, 0, 0, 0, 0, 1, 1, 1}
	const x, y = 0, 1
	r := NewRefiner(2, 1, Options{Tol: 0.05})
	r.setup(g, part)
	if r.limit[0] != 6 {
		t.Fatalf("limit = %d, want 6", r.limit[0])
	}
	rand := rng.New(5)

	if r.st[x] != stIdle {
		t.Fatalf("with gain -1, st[%d] = %d after setup, want stIdle", x, r.st[x])
	}
	if moves := r.greedyPass(g, part, rand); moves != 0 {
		t.Fatalf("first pass made %d moves, want 0", moves)
	}
	if err := r.verifyState(g); err != nil {
		t.Fatal(err)
	}

	// Force y into part 1; x loses an internal edge and gains an external
	// one, so its gain toward part 1 becomes +1. Vertex 3, interior
	// before, is on the boundary now with gain -2.
	r.apply(g, part, y, 0, 1, g.VertexWeight(y), 1-3)
	for _, v := range []int32{x, 3} {
		if r.st[v] != stEvaluate {
			t.Fatalf("after neighbor %d moved, st[%d] = %d, want stEvaluate", y, v, r.st[v])
		}
	}
	if err := r.verifyState(g); err != nil {
		t.Fatal(err)
	}

	evaluated0 := r.evaluated
	if moves := r.greedyPass(g, part, rand); moves != 1 || part[x] != 1 {
		t.Fatalf("second pass: %d moves, part[%d] = %d; want 1 move of %d into part 1", moves, x, part[x], x)
	}
	if r.evaluated == evaluated0 {
		t.Error("second pass evaluated no vertex")
	}
	if r.st[3] != stIdle {
		t.Errorf("after a pass that found only gain -2, st[3] = %d, want stIdle", r.st[3])
	}
	if err := r.verifyState(g); err != nil {
		t.Fatal(err)
	}
	if cut, want := r.Cut(), metrics.EdgeCut(g, part); cut != want {
		t.Errorf("tracked cut %d, recomputed %d", cut, want)
	}
}

// TestRefineAllocBudget is the committed allocation budget for the
// boundary-driven refinement hot path: a warm Refiner (tables reserved and
// seeded once) must refine a level allocation-free — everything it needs is
// pooled, so the budget is only headroom for incidental runtime churn.
func TestRefineAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting loop")
	}
	g := gen.Type1(gen.MRNGLike(12, 12, 12, 5), 2, 17)
	part0 := initpart.RecursiveBisect(g, 8, rng.New(2), initpart.Options{Tol: 0.05})
	ref := NewRefiner(8, g.Ncon, Options{Tol: 0.05, Passes: 4})
	ref.Reserve(g)
	part := make([]int32, len(part0))
	copy(part, part0)
	ref.Refine(g, part, rng.New(3)) // warm the pooled tables

	const budget = 8.0
	got := testing.AllocsPerRun(5, func() {
		copy(part, part0)
		ref.Refine(g, part, rng.New(3))
	})
	t.Logf("warm Refine (n=%d, k=8, m=2): %.0f allocs/op (budget %.0f)",
		g.NumVertices(), got, budget)
	if got > budget {
		t.Errorf("refinement allocations regressed: %.0f/op exceeds the committed budget of %.0f",
			got, budget)
	}
}

func benchRefine(b *testing.B, refine func(*Refiner, *graph.Graph, []int32, *rng.RNG) int) {
	g := gen.Type1(gen.MRNGLike(20, 16, 16, 5), 2, 17)
	part0 := initpart.RecursiveBisect(g, 8, rng.New(2), initpart.Options{Tol: 0.05})
	ref := NewRefiner(8, g.Ncon, Options{Tol: 0.05, Passes: 4})
	ref.Reserve(g)
	part := make([]int32, len(part0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(part, part0)
		refine(ref, g, part, rng.New(3))
	}
}

func BenchmarkRefineBoundary(b *testing.B) { benchRefine(b, (*Refiner).Refine) }

func BenchmarkRefineFullScan(b *testing.B) {
	benchRefine(b, func(r *Refiner, g *graph.Graph, part []int32, rand *rng.RNG) int {
		return fullScan{r}.Refine(g, part, rand)
	})
}
