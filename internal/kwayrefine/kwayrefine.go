// Package kwayrefine implements the serial multi-constraint k-way
// refinement used during the uncoarsening phase (SC'98): a randomized
// greedy Kernighan-Lin variant that moves boundary vertices to adjacent
// subdomains when the move reduces edge-cut and keeps every one of the m
// constraints within its balance limit, plus an explicit balancing pass
// that accepts cut-increasing moves to drain overweight subdomains.
//
// Refinement is boundary-driven, as the paper describes ("the vertices that
// are on the boundary of the partition are visited"): the refiner maintains
// an explicit boundary set plus per-vertex internal/external edge-weight
// tables (the gain cache), seeded by one O(m) scan in setup and updated
// incrementally — only the moved vertex and its neighbors — on every move.
// A greedy pass therefore costs O(n) for the random permutation plus
// O(degree) per *boundary* vertex, instead of the O(n + m) full scan of the
// pre-boundary implementation. A one-byte refinement state per vertex sits
// in front of the caches: boundary vertices whose every gain is provably
// negative are idle and skipped without touching the caches, until a move
// next to them makes them worth evaluating again. The refiner is pinned
// bit-identical to a full-scan oracle kept in the tests (see
// boundary_test.go and DESIGN.md, "Boundary refinement contract").
package kwayrefine

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/gaincache"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/vecw"
)

// Options configures refinement.
type Options struct {
	// Tol is the load-imbalance tolerance (paper: 0.05).
	Tol float64
	// Passes bounds the number of refinement iterations per level; the
	// paper notes the iteration count is upper bounded but stops early at
	// a local minimum.
	Passes int
	// Stop, when non-nil, is polled at every pass boundary; once it
	// returns true Refine/Balance return early with the moves made so
	// far. The partitioning is always left in a consistent (if less
	// refined) state, so cancellation mid-uncoarsening is safe.
	Stop func() bool
	// Trace, when non-nil, records one "refine.pass" span per refinement
	// pass (the observability hook; see DESIGN.md, "Observability"),
	// attributed with the boundary size at pass start, the gain-cache
	// entries rewritten during the pass, and the boundary vertices the
	// greedy pass evaluated or skipped as idle. nil disables all recording.
	Trace *trace.Rank
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 0.05
	}
	if o.Passes <= 0 {
		o.Passes = 8
	}
	return o
}

// Refiner holds the reusable state for refining partitions of graphs into k
// parts with m constraints. One Refiner serves a whole uncoarsening
// hierarchy: its tables grow to the largest graph seen (or to the size given
// to Reserve) and are re-seeded by setup at every level.
type Refiner struct {
	k, m  int
	opt   Options
	pwgts []int64 // k*m
	limit []int64 // k*m
	avg   []float64
	// cut is seeded from the external-degree table in setup and maintained
	// incrementally (each applied move subtracts its gain). Under the
	// mcdebug build tag check.Partition compares it against a scratch
	// recomputation after every Refine.
	cut int64
	// rows is the per-vertex gain-row accumulator (edge weight toward each
	// adjacent foreign subdomain), shared structurally with the parallel
	// refiner via internal/gaincache.
	rows  *gaincache.Rows
	order []int32

	// The gain cache: per-vertex internal (same-subdomain) and external
	// edge weight, foreign-neighbor count, and the boundary set it induces
	// (bndptr[v] is v's index in bnd, -1 for interior vertices). Seeded by
	// setup with one O(m) scan; apply rewrites only the moved vertex's and
	// its neighbors' entries.
	id, ed  []int64
	nfr     []int32
	bnd     []int32
	bndptr  []int32
	updates int64 // gain-cache entries rewritten by apply (trace counter)

	// The connectivity-row cache: v's gain rows (foreign subdomain, summed
	// edge weight) in first-occurrence adjacency order, stored at offsets
	// Xadj[v]..Xadj[v]+rowLen[v] so capacity never runs out. setup seeds
	// every entry clean; rowLen[v] < 0 marks an entry stale, and apply
	// invalidates the moved vertex and all of its neighbors (any of their
	// rows gain/lose the mover's edge weight), so a clean entry is always
	// exactly what a fresh adjacency scan would re-derive — including the
	// iteration order the tie-breaks depend on.
	rowPart []int32
	rowWgt  []int64
	rowLen  []int32

	// The refinement state, one byte per vertex (stInterior, stEvaluate or
	// stIdle). greedyPass reads only st[v] to skip a vertex, so a skipped
	// vertex costs one load from a 1 MB table at n = 1M instead of the
	// dependent loads of a row-cache gather.
	st                   []uint8
	evaluated, idleSkips int64 // greedy-pass visits (trace counters)
}

// Refinement states. An idle vertex is on the boundary, its cached rows are
// clean, and every row weight is below id[v]: every gain is negative, so the
// greedy candidate loop, which rejects gain < 0 before it reads any
// subdomain weight, cannot move it. Its rows and id change only in apply,
// which demotes it (and every neighbor of a moved vertex) to stEvaluate.
const (
	stInterior uint8 = iota // not on the boundary
	stEvaluate              // on the boundary; rows stale or some gain >= 0
	stIdle                  // on the boundary; clean rows, every gain < 0
)

// NewRefiner creates a refiner for k parts and m constraints.
func NewRefiner(k, m int, opt Options) *Refiner {
	return &Refiner{
		k: k, m: m, opt: opt.withDefaults(),
		pwgts: make([]int64, k*m),
		limit: make([]int64, k*m),
		avg:   make([]float64, m),
		rows:  gaincache.NewRows(k),
	}
}

// Reserve grows the per-vertex and per-edge tables to the given graph's
// size, so refining a hierarchy after announcing the finest level up front
// (as internal/serial does) never reallocates per level.
func (r *Refiner) Reserve(g *graph.Graph) {
	r.grow(g.NumVertices(), len(g.Adjncy))
}

func (r *Refiner) grow(n, nnz int) {
	if cap(r.order) < n {
		r.order = make([]int32, 0, n)
		r.id = make([]int64, 0, n)
		r.ed = make([]int64, 0, n)
		r.nfr = make([]int32, 0, n)
		r.bnd = make([]int32, 0, n)
		r.bndptr = make([]int32, 0, n)
		r.rowLen = make([]int32, 0, n)
		r.st = make([]uint8, 0, n)
	}
	if cap(r.rowPart) < nnz {
		r.rowPart = make([]int32, nnz)
		r.rowWgt = make([]int64, nnz)
	}
}

// setup recomputes subdomain weights, averages and limits for g/part, seeds
// the gain cache (id/ed/nfr and the boundary set) with one scan over the
// edges, and sizes the per-vertex scratch — the single shared preamble for
// every entry point (Refine and Balance).
func (r *Refiner) setup(g *graph.Graph, part []int32) {
	for i := range r.pwgts {
		r.pwgts[i] = 0
	}
	n := g.NumVertices()
	m := r.m
	r.grow(n, len(g.Adjncy))
	r.order = r.order[:n]
	r.id = r.id[:n]
	r.ed = r.ed[:n]
	r.nfr = r.nfr[:n]
	r.bndptr = r.bndptr[:n]
	r.bnd = r.bnd[:0]
	r.rowLen = r.rowLen[:n]
	r.st = r.st[:n]
	for v := 0; v < n; v++ {
		vecw.Add(r.pwgts[int(part[v])*m:(int(part[v])+1)*m], g.Vwgt[v*m:(v+1)*m])
	}
	for c := 0; c < m; c++ {
		var total int64
		for s := 0; s < r.k; s++ {
			total += r.pwgts[s*m+c]
		}
		r.avg[c] = float64(total) / float64(r.k)
		lim := vecw.Limit(total, r.k, r.opt.Tol)
		for s := 0; s < r.k; s++ {
			r.limit[s*m+c] = lim
		}
	}

	var extern int64
	for v := int32(0); int(v) < n; v++ {
		a := part[v]
		var id, ed int64
		nfr := int32(0)
		r.rows.Clear()
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if b := part[u]; b == a {
				id += int64(wgt[i])
			} else {
				ed += int64(wgt[i])
				nfr++
				r.rows.Add(v, b, int64(wgt[i]))
			}
		}
		r.id[v], r.ed[v], r.nfr[v] = id, ed, nfr
		// The scan that seeds id also yields v's rows: store them clean, so
		// the first pass finds every row in the cache and skips the
		// boundary vertices whose gains are all negative already.
		r.storeRows(g, v)
		if nfr > 0 {
			r.bndAdd(v)
			if r.allGainsNegative(g, v) {
				r.st[v] = stIdle
			}
		} else {
			r.bndptr[v] = -1
			r.st[v] = stInterior
		}
		extern += ed
	}
	// Every cut edge contributes its weight to both endpoints' external
	// degree, so the table seed yields the cut for free.
	r.cut = extern / 2
	r.updates, r.evaluated, r.idleSkips = 0, 0, 0
}

// Cut returns the edge-cut as seeded by setup and maintained incrementally
// across moves; valid after Refine/Balance.
func (r *Refiner) Cut() int64 { return r.cut }

// BoundarySize returns the current number of boundary vertices (vertices
// with at least one neighbor in another subdomain); valid after
// Refine/Balance.
func (r *Refiner) BoundarySize() int { return len(r.bnd) }

// PartWeights returns a copy of the current k*m subdomain weight vectors;
// valid after Refine/Balance.
func (r *Refiner) PartWeights() []int64 {
	return append([]int64(nil), r.pwgts...)
}

// Refine runs greedy refinement passes (preceded by balancing passes when
// the partitioning is imbalanced) until convergence or the pass budget is
// exhausted. It returns the number of vertex moves made.
func (r *Refiner) Refine(g *graph.Graph, part []int32, rand *rng.RNG) int {
	r.setup(g, part)
	totalMoves := 0
	for pass := 0; pass < r.opt.Passes; pass++ {
		if r.opt.Stop != nil && r.opt.Stop() {
			break
		}
		updates0, evaluated0, idleSkips0 := r.updates, r.evaluated, r.idleSkips
		if r.opt.Trace != nil {
			r.opt.Trace.Begin("refine.pass",
				trace.I64("pass", int64(pass)),
				trace.I64("n", int64(g.NumVertices())),
				trace.I64("boundary_n", int64(len(r.bnd))))
		}
		moves := 0
		if r.imbalanced() {
			moves += r.balancePass(g, part, rand)
		}
		moves += r.greedyPass(g, part, rand)
		totalMoves += moves
		if r.opt.Trace != nil {
			r.opt.Trace.End(
				trace.I64("moves", int64(moves)),
				trace.I64("gain_cache_updates", r.updates-updates0),
				trace.I64("evaluated", r.evaluated-evaluated0),
				trace.I64("idle_skipped", r.idleSkips-idleSkips0))
		}
		if check.Enabled {
			r.checkCaches("kwayrefine: after refine pass", g, part)
		}
		if moves == 0 {
			break
		}
	}
	return totalMoves
}

// Balance runs only balancing passes; used to recover partitions that are
// too imbalanced for greedy refinement to help (ablation 4 harness).
func (r *Refiner) Balance(g *graph.Graph, part []int32, rand *rng.RNG) int {
	r.setup(g, part)
	total := 0
	for pass := 0; pass < r.opt.Passes && r.imbalanced(); pass++ {
		if r.opt.Stop != nil && r.opt.Stop() {
			break
		}
		moves := r.balancePass(g, part, rand)
		total += moves
		if check.Enabled {
			r.checkCaches("kwayrefine: after balance pass", g, part)
		}
		if moves == 0 {
			break
		}
	}
	return total
}

// Imbalance returns the current max subdomain-weight / average ratio; valid
// after Refine/Balance.
func (r *Refiner) Imbalance() float64 {
	worst := 0.0
	for s := 0; s < r.k; s++ {
		if rr := vecw.MaxRatio(r.pwgts[s*r.m:(s+1)*r.m], r.avg); rr > worst {
			worst = rr
		}
	}
	return worst
}

func (r *Refiner) imbalanced() bool {
	return vecw.AnyOver(r.pwgts, r.limit)
}

// greedyPass visits vertices in random order and applies the best
// cut-reducing (or cut-neutral, balance-improving) legal move for each
// boundary vertex. The permutation always covers all n vertices — the RNG
// stream is part of the determinism contract — but interior and idle
// vertices are skipped on their one-byte state alone, and a vertex whose
// every gain turns out negative is marked idle for the passes that follow.
// Returns the number of moves.
func (r *Refiner) greedyPass(g *graph.Graph, part []int32, rand *rng.RNG) int {
	rand.Perm(r.order)
	m := r.m
	moves := 0
	for _, v := range r.order {
		switch r.st[v] {
		case stInterior:
			continue
		case stIdle:
			r.idleSkips++
			continue
		}
		r.evaluated++
		r.gatherRows(g, part, v)
		a, id := part[v], r.id[v]
		vw := g.VertexWeight(v)
		bestB := int32(-1)
		var bestGain int64
		bestBal := 0.0
		idle := true
		for _, b := range r.rows.Touched() {
			gain := r.rows.Weight(b) - id
			if gain < 0 {
				continue
			}
			idle = false
			if bestB >= 0 && gain < bestGain {
				continue
			}
			if !vecw.FitsUnder(r.pwgts[int(b)*m:(int(b)+1)*m], vw, r.limit[int(b)*m:(int(b)+1)*m]) {
				continue
			}
			bal := r.balanceDelta(a, b, vw)
			if gain == 0 && bal >= 0 && bestB < 0 {
				continue // zero-gain move must strictly improve balance
			}
			if bestB < 0 || gain > bestGain || (gain == bestGain && bal < bestBal) {
				bestB, bestGain, bestBal = b, gain, bal
			}
		}
		if bestB >= 0 {
			r.apply(g, part, v, a, bestB, vw, bestGain)
			moves++
		} else if idle {
			r.st[v] = stIdle
		}
	}
	return moves
}

// balancePass drains overweight subdomains: every vertex in an overweight
// subdomain may be moved — regardless of edge-cut gain — to the adjacent
// (or, failing that, any) subdomain that can take it, preferring the
// smallest cut damage. Interior vertices of overweight subdomains are
// eligible too (they become fully exposed), so the pass cannot filter
// through the boundary set; it does use the cache to skip the adjacency
// scan for them. Returns the number of moves.
func (r *Refiner) balancePass(g *graph.Graph, part []int32, rand *rng.RNG) int {
	rand.Perm(r.order)
	m := r.m
	moves := 0
	for _, v := range r.order {
		a := part[v]
		if !vecw.AnyOver(r.pwgts[int(a)*m:(int(a)+1)*m], r.limit[int(a)*m:(int(a)+1)*m]) {
			continue
		}
		vw := g.VertexWeight(v)
		// Interior vertices (overweight subdomains may drain them too)
		// gather an empty row set — O(1) when the cache entry is clean.
		r.gatherRows(g, part, v)
		id := r.id[v]
		bestB := int32(-1)
		var bestGain int64
		bestBal := 0.0
		for _, b := range r.rows.Touched() {
			if gain := r.rows.Weight(b) - id; r.tryCandidate(a, b, vw, gain, &bestB, &bestGain, &bestBal) {
			}
		}
		if bestB < 0 {
			// No adjacent subdomain can take v: consider all subdomains
			// (gain is then -id: v becomes fully exposed).
			for b := int32(0); int(b) < r.k; b++ {
				if b == a || r.rows.Marked(v, b) {
					continue
				}
				r.tryCandidate(a, b, vw, -id, &bestB, &bestGain, &bestBal)
			}
		}
		if bestB >= 0 {
			r.apply(g, part, v, a, bestB, vw, bestGain)
			moves++
			if !vecw.AnyOver(r.pwgts[int(a)*m:(int(a)+1)*m], r.limit[int(a)*m:(int(a)+1)*m]) &&
				!r.imbalanced() {
				break
			}
		}
	}
	return moves
}

// tryCandidate updates the running best (b, gain) if moving v (weight vw)
// from a to b is legal and better: balance improvement first, then gain.
func (r *Refiner) tryCandidate(a, b int32, vw []int32, gain int64, bestB *int32, bestGain *int64, bestBal *float64) bool {
	m := r.m
	if !vecw.FitsUnder(r.pwgts[int(b)*m:(int(b)+1)*m], vw, r.limit[int(b)*m:(int(b)+1)*m]) {
		return false
	}
	bal := r.balanceDelta(a, b, vw)
	if bal >= 0 {
		return false // must strictly improve balance in a balance pass
	}
	if *bestB < 0 || gain > *bestGain || (gain == *bestGain && bal < *bestBal) {
		*bestB, *bestGain, *bestBal = b, gain, bal
		return true
	}
	return false
}

// gatherRows loads v's gain rows into r.rows: from the connectivity-row
// cache when the entry is clean (O(rows), typically a handful of entries),
// else by scanning the adjacency list and refreshing the cache (O(degree)).
// The internal degree is not recomputed either way — callers read the
// cached r.id[v], which apply keeps equal to what a scan would yield
// (mcdebug validates the equality after every pass).
func (r *Refiner) gatherRows(g *graph.Graph, part []int32, v int32) {
	r.rows.Clear()
	base := g.Xadj[v]
	if rn := r.rowLen[v]; rn >= 0 {
		for i := int32(0); i < rn; i++ {
			r.rows.Add(v, r.rowPart[base+i], r.rowWgt[base+i])
		}
		return
	}
	a := part[v]
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		if b := part[u]; b != a {
			r.rows.Add(v, b, int64(wgt[i]))
		}
	}
	r.updates += int64(r.storeRows(g, v))
}

// storeRows copies the rows gathered in r.rows into v's cache entry, marks
// it clean, and returns the number of rows.
func (r *Refiner) storeRows(g *graph.Graph, v int32) int {
	base := g.Xadj[v]
	touched := r.rows.Touched()
	for i, b := range touched {
		r.rowPart[base+int32(i)] = b
		r.rowWgt[base+int32(i)] = r.rows.Weight(b)
	}
	r.rowLen[v] = int32(len(touched))
	return len(touched)
}

// allGainsNegative reports whether every clean cached row of v weighs less
// than id[v]: the idle condition.
func (r *Refiner) allGainsNegative(g *graph.Graph, v int32) bool {
	base := g.Xadj[v]
	for _, w := range r.rowWgt[base : base+r.rowLen[v]] {
		if w >= r.id[v] {
			return false
		}
	}
	return true
}

// apply commits the move of v (weight vw, cut reduction gain) from a to b
// and repairs the gain cache: v's own id/ed/nfr are rebuilt from its
// adjacency, each neighbor's entry is adjusted by the edge it shares with v,
// and boundary membership is updated where a foreign-neighbor count crossed
// zero. Every vertex whose rows go stale also leaves stIdle. O(degree(v))
// total — the incremental update that makes boundary-driven passes sound.
func (r *Refiner) apply(g *graph.Graph, part []int32, v, a, b int32, vw []int32, gain int64) {
	m := r.m
	vecw.Move(r.pwgts[int(a)*m:(int(a)+1)*m], r.pwgts[int(b)*m:(int(b)+1)*m], vw)
	part[v] = b
	r.cut -= gain

	var idv, edv int64
	nfrv := int32(0)
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		w := int64(wgt[i])
		// Every neighbor's rows shift weight from the a-row to the b-row,
		// so all of them (and v itself, below) go stale. A neighbor of v is
		// on the boundary after the move unless the case-b branch removes
		// it, which resets its state to stInterior.
		r.rowLen[u] = -1
		r.st[u] = stEvaluate
		switch part[u] {
		case b:
			// v was foreign to u (a != b), now internal.
			idv += w
			r.id[u] += w
			r.ed[u] -= w
			r.nfr[u]--
			if r.nfr[u] == 0 {
				r.bndRemove(u)
			}
		case a:
			// v was internal to u, now foreign.
			edv += w
			nfrv++
			r.id[u] -= w
			r.ed[u] += w
			r.nfr[u]++
			if r.nfr[u] == 1 {
				r.bndAdd(u)
			}
		default:
			// v was foreign to u before and after: only u's rows change.
			edv += w
			nfrv++
		}
	}
	r.id[v], r.ed[v], r.nfr[v] = idv, edv, nfrv
	r.rowLen[v] = -1
	if nfrv > 0 {
		if r.bndptr[v] < 0 {
			r.bndAdd(v)
		} else {
			r.st[v] = stEvaluate
		}
	} else if r.bndptr[v] >= 0 {
		r.bndRemove(v)
	}
	r.updates += int64(len(adj)) + 1
}

func (r *Refiner) bndAdd(v int32) {
	r.bndptr[v] = int32(len(r.bnd))
	r.bnd = append(r.bnd, v)
	r.st[v] = stEvaluate
}

func (r *Refiner) bndRemove(v int32) {
	i := r.bndptr[v]
	last := r.bnd[len(r.bnd)-1]
	r.bnd[i] = last
	r.bndptr[last] = i
	r.bnd = r.bnd[:len(r.bnd)-1]
	r.bndptr[v] = -1
	r.st[v] = stInterior
}

// checkCaches is the mcdebug after-pass check: the gain cache against a
// scratch re-derivation, then the refinement state against the caches.
func (r *Refiner) checkCaches(where string, g *graph.Graph, part []int32) {
	check.GainCache(where, g, part, r.id, r.ed, r.nfr, r.bnd, r.bndptr)
	if err := r.verifyState(g); err != nil {
		panic("mcdebug: " + where + ": " + err.Error())
	}
}

// verifyState checks the refinement-state invariants without allocating:
// stInterior exactly for vertices outside the boundary set, and every idle
// vertex's cached rows clean with each row weight below its internal degree.
func (r *Refiner) verifyState(g *graph.Graph) error {
	for v := range r.st {
		if interior := r.st[v] == stInterior; interior != (r.bndptr[v] < 0) {
			return fmt.Errorf("kwayrefine: vertex %d: state %d but bndptr %d", v, r.st[v], r.bndptr[v])
		}
		if r.st[v] != stIdle {
			continue
		}
		if r.rowLen[v] < 0 {
			return fmt.Errorf("kwayrefine: idle vertex %d has stale rows", v)
		}
		if !r.allGainsNegative(g, int32(v)) {
			return fmt.Errorf("kwayrefine: idle vertex %d has a row weighing at least its id %d", v, r.id[v])
		}
	}
	return nil
}

// balanceDelta returns the change in Σ_c (load/avg)² over subdomains a and
// b if v's weight vector vw moves from a to b; negative means the move
// improves balance.
func (r *Refiner) balanceDelta(a, b int32, vw []int32) float64 {
	m := r.m
	var before, after float64
	for c := 0; c < m; c++ {
		if r.avg[c] <= 0 {
			continue
		}
		wa := float64(r.pwgts[int(a)*m+c])
		wb := float64(r.pwgts[int(b)*m+c])
		w := float64(vw[c])
		before += (wa*wa + wb*wb) / (r.avg[c] * r.avg[c])
		after += ((wa-w)*(wa-w) + (wb+w)*(wb+w)) / (r.avg[c] * r.avg[c])
	}
	return after - before
}
