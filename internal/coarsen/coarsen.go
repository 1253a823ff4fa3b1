// Package coarsen implements the coarsening phase of the multilevel
// paradigm: heavy-edge matching (HEM) with the SC'98 "balanced edge"
// tie-break, size-constrained label-propagation clustering (internal/lp)
// for skewed degree distributions, and graph contraction.
//
// During coarsening the graph is successively shrunk by collapsing groups
// of vertices (matched pairs, or label-propagation clusters); the weight
// vector of a coarse vertex is the component-wise sum of its constituents
// and parallel edges merge by summing weights, so total vertex weight (per
// constraint) and total exposed+internal edge weight are invariants of
// contraction.
package coarsen

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/lp"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/vecw"
)

// Scheme selects how a level groups fine vertices into coarse ones.
type Scheme int

const (
	// SchemeMatching is the SC'98 heavy-edge matching: at most two fine
	// vertices per coarse vertex, ~2x shrink per level on bounded-degree
	// meshes. The zero value, so existing callers keep the paper behaviour
	// bit-identically.
	SchemeMatching Scheme = iota
	// SchemeCluster is size-constrained label propagation (internal/lp):
	// many-to-one clusters under per-constraint weight caps, the scheme
	// that keeps shrinking when hubs make maximal matching stall.
	SchemeCluster
	// SchemeAuto sniffs the degree distribution of the finest graph once
	// (DegreeSkewed) and picks SchemeCluster for skewed inputs,
	// SchemeMatching otherwise.
	SchemeAuto
)

// String returns the flag/API spelling of the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeMatching:
		return "matching"
	case SchemeCluster:
		return "cluster"
	case SchemeAuto:
		return "auto"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme parses the flag/API spelling of a coarsening scheme. The
// empty string means the default (matching), so absent request fields and
// unset flags need no special-casing by callers.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "", "matching":
		return SchemeMatching, nil
	case "cluster":
		return SchemeCluster, nil
	case "auto":
		return SchemeAuto, nil
	}
	return SchemeMatching, fmt.Errorf("unknown coarsening scheme %q (want matching, cluster, or auto)", s)
}

// Options controls matching behaviour.
type Options struct {
	// Scheme selects the grouping strategy per level. The zero value is
	// SchemeMatching — the paper default, bit-identical to the pre-scheme
	// pipeline. SchemeAuto resolves once, on the finest graph.
	Scheme Scheme
	// Tol is the balance tolerance the cluster scheme derives its
	// per-constraint cluster weight caps from (<= 0 means the pipeline
	// default, 0.05). Matching ignores it (its cap is MaxVertexWeight).
	Tol float64
	// LPRounds overrides the label-propagation round count for the cluster
	// scheme (0 = lp.DefaultRounds). Matching ignores it.
	LPRounds int
	// BalancedEdge enables the SC'98 multi-constraint tie-break: among
	// maximum-weight candidate edges, prefer the mate whose combined weight
	// vector is flattest (minimum jaggedness), which keeps coarse vertex
	// weights balanced across constraints and preserves refinement
	// flexibility on coarse graphs.
	BalancedEdge bool
	// MaxVertexWeight, if positive, caps each component of a coarse
	// vertex's weight vector: matches that would exceed it are skipped.
	// This is METIS's guard against coarsening collapsing too much weight
	// into single unsplittable vertices.
	MaxVertexWeight int64
	// Workers bounds the goroutines running the coarsening kernels
	// concurrently: matching candidate scans, contraction, and the LP
	// cluster scheme's per-round scans. 0 or 1 runs everything on the
	// calling goroutine: the matching kernel inline on one worker, the
	// sequential contraction and LP kernels. Any value
	// produces a bit-identical hierarchy (and therefore identical
	// partitions and service cache keys); only wall clock changes. See
	// DESIGN.md, "Parallel coarsening contract".
	Workers int
	// Plan, when non-nil, is the hierarchy memory plan the retained
	// per-level outputs (cmap and the coarse CSR) are carved from instead
	// of loose per-level makes, and the handle the uncoarsening loop
	// retires levels through. Carving changes where the bytes live, never
	// what they hold: every kernel emits identical values either way. nil
	// keeps the legacy allocation path (the public Contract/ContractMap
	// entry points and pre-plan callers).
	Plan *hier.Plan
	// Stop, when non-nil, is polled by BuildHierarchy at every level
	// boundary; once it returns true the hierarchy is abandoned and
	// BuildHierarchy returns nil. It is how context cancellation reaches
	// the coarsening loop without the package importing context.
	Stop func() bool
	// Trace, when non-nil, records one "coarsen.level" span per
	// contraction (the observability hook; see DESIGN.md,
	// "Observability"). nil disables all recording.
	Trace *trace.Rank
}

// scratch holds the reusable matching/contraction work buffers. One
// instance sized at the finest level serves a whole BuildHierarchy run:
// every coarser level needs strictly smaller slices of the same arrays, so
// the per-level allocations collapse to the retained outputs (cmap and the
// coarse CSR) only. The dedup marker is an epoch-stamped arena.Marker: one
// generation per coarse vertex, no per-level clearing at all.
type scratch struct {
	match  []int32      // mate per vertex (the matchInto result)
	order  []int32      // random visit order
	prop   []int32      // proposed mate per visit-order position
	marker arena.Marker // parallel-edge dedup, indexed by coarse vertex
	// slot is the merged-edge buffer index of a coarse neighbor during
	// contraction, and each vertex's visit position during matching.
	slot     []int32
	bufAdj   []int32 // merged coarse edges, fine-edge capacity
	bufWgt   []int32
	combined []int64 // Ncon-wide tie-break accumulator
	head     []int32 // cluster-member offsets for many-to-one contraction
}

func newScratch(n, ncon int) *scratch {
	return &scratch{
		match:    make([]int32, n),
		order:    make([]int32, n),
		slot:     make([]int32, n),
		combined: make([]int64, ncon),
	}
}

func (s *scratch) propBuf(n int) []int32 {
	if cap(s.prop) < n {
		s.prop = make([]int32, n)
	}
	return s.prop[:n]
}

// edgeBuf returns the pooled merged-edge buffers with room for nnz entries.
func (s *scratch) edgeBuf(nnz int) ([]int32, []int32) {
	if cap(s.bufAdj) < nnz {
		s.bufAdj = make([]int32, nnz)
		s.bufWgt = make([]int32, nnz)
	}
	return s.bufAdj[:nnz], s.bufWgt[:nnz]
}

// carveCMap, carveCoarse, and carveEdges draw a level's retained arrays
// from the hierarchy memory plan when one is active and fall back to loose
// makes otherwise. Both sources hand back zeroed, exactly-sized memory, so
// the kernels are oblivious to which they got.
func carveCMap(hlv *hier.Level, n int) []int32 {
	if hlv != nil {
		return hlv.CMap()
	}
	return make([]int32, n)
}

func carveCoarse(hlv *hier.Level, cn, m int) (vwgt, xadj []int32) {
	if hlv != nil {
		return hlv.Coarse(cn)
	}
	return make([]int32, cn*m), make([]int32, cn+1)
}

func carveEdges(hlv *hier.Level, nnz int) (adjncy, adjwgt []int32) {
	if hlv != nil {
		return hlv.Edges(nnz)
	}
	return make([]int32, nnz), make([]int32, nnz)
}

// Match computes a heavy-edge matching of g. The result maps every vertex v
// to its mate (match[v] == v for unmatched vertices), and is an involution:
// match[match[v]] == v.
func Match(g *graph.Graph, rand *rng.RNG, opt Options) []int32 {
	match, _, _ := matchInto(g, rand, opt, newScratch(g.NumVertices(), g.Ncon), nil)
	return match
}

func fitsCap(a, b []int32, cap int64) bool {
	for i := range a {
		if int64(a[i])+int64(b[i]) > cap {
			return false
		}
	}
	return true
}

func combinedJaggedness(scratch []int64, a, b []int32) float64 {
	for i := range a {
		scratch[i] = int64(a[i]) + int64(b[i])
	}
	return vecw.Jaggedness(scratch)
}

// Contract collapses the matched pairs of g into a coarser graph. It
// returns the coarse graph and cmap, the fine-vertex → coarse-vertex map.
// Coarse vertex ids are assigned in fine-vertex order (the lower endpoint
// of each matched pair names the coarse vertex).
func Contract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	return contractInto(g, match, newScratch(g.NumVertices(), g.Ncon), nil)
}

// contractInto is Contract drawing its mark/slot/next work arrays from s
// and, when hlv is non-nil, the retained outputs from the hierarchy memory
// plan. The returned graph and cmap are retained in the hierarchy; only
// the dedup scratch is pooled.
func contractInto(g *graph.Graph, match []int32, s *scratch, hlv *hier.Level) (*graph.Graph, []int32) {
	n := g.NumVertices()
	m := g.Ncon
	cmap := carveCMap(hlv, n)
	cn := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if match[v] >= v { // v is the representative of its pair (or solo)
			cmap[v] = cn
			cn++
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if match[v] < v {
			cmap[v] = cmap[match[v]]
		}
	}

	cvwgt, cxadj := carveCoarse(hlv, int(cn), m)
	for v := 0; v < n; v++ {
		cv := int(cmap[v])
		for c := 0; c < m; c++ {
			cvwgt[cv*m+c] += g.Vwgt[v*m+c]
		}
	}

	// One pass over the fine edges: coarse vertices are produced in
	// ascending order, so their merged adjacency lists can be emitted
	// contiguously into a pooled fine-edge-capacity buffer and the exact
	// coarse CSR is then a prefix copy — no counting pre-pass. The
	// epoch-stamped marker (one generation per coarse vertex) deduplicates
	// parallel edges with no clearing between levels or passes.
	s.marker.Grow(int(cn))
	slot := s.slot[:cn]
	bufAdj, bufWgt := s.edgeBuf(len(g.Adjncy))
	cur := int32(0)
	for v := int32(0); int(v) < n; v++ {
		if match[v] < v {
			continue
		}
		cv := cmap[v]
		s.marker.Next()
		cur = fillEdges(g, v, cmap, cv, &s.marker, slot, bufAdj, bufWgt, cur)
		if match[v] != v {
			cur = fillEdges(g, match[v], cmap, cv, &s.marker, slot, bufAdj, bufWgt, cur)
		}
		cxadj[cv+1] = cur
	}
	cadjncy, cadjwgt := carveEdges(hlv, int(cur))
	copy(cadjncy, bufAdj[:cur])
	copy(cadjwgt, bufWgt[:cur])

	coarse := &graph.Graph{Ncon: m, Xadj: cxadj, Adjncy: cadjncy, Adjwgt: cadjwgt, Vwgt: cvwgt}
	return coarse, cmap
}

// fillEdges appends/merges fine vertex v's edges into coarse vertex cv's
// adjacency at buf[cur:], returning the advanced cursor. A marked coarse
// neighbor (within cv's marker generation) has its buffer index in slot, so
// parallel edges merge by weight in O(1).
func fillEdges(g *graph.Graph, v int32, cmap []int32, cv int32, mk *arena.Marker, slot, bufAdj, bufWgt []int32, cur int32) int32 {
	adj, wgt := g.Neighbors(v)
	for i, u := range adj {
		cu := cmap[u]
		if cu == cv {
			continue
		}
		if mk.TryMark(cu) {
			slot[cu] = cur
			bufAdj[cur] = cu
			bufWgt[cur] = wgt[i]
			cur++
		} else {
			bufWgt[slot[cu]] += wgt[i]
		}
	}
	return cur
}

// ContractMap collapses an arbitrary many-to-one cluster assignment into a
// coarser graph: cmap maps every fine vertex to a dense cluster id in
// [0, nc) (the shape lp.Cluster produces), and the coarse graph has one
// vertex per cluster with component-wise summed weights and merged edges.
// Contract's matched-pair contraction is the special case where every
// cluster has one or two members.
func ContractMap(g *graph.Graph, cmap []int32, nc int) *graph.Graph {
	return contractMapInto(g, cmap, nc, newScratch(g.NumVertices(), g.Ncon), nil)
}

// contractMapInto is ContractMap drawing its work arrays from s and, when
// hlv is non-nil, the retained coarse CSR from the hierarchy memory plan.
// The member lists, cursors, and dedup scratch are pooled.
func contractMapInto(g *graph.Graph, cmap []int32, nc int, s *scratch, hlv *hier.Level) *graph.Graph {
	n := g.NumVertices()
	m := g.Ncon

	// Counting sort the fine vertices by cluster id so each coarse vertex's
	// members are contiguous; members reuses the matching buffer, the
	// cursor pass reuses the visit-order buffer.
	if cap(s.head) < nc+1 {
		s.head = make([]int32, nc+1)
	}
	head := s.head[:nc+1]
	for i := range head {
		head[i] = 0
	}
	for _, cv := range cmap {
		head[cv+1]++
	}
	for i := 0; i < nc; i++ {
		head[i+1] += head[i]
	}
	members := s.match[:n]
	cursor := s.order[:nc]
	copy(cursor, head[:nc])
	for v := 0; v < n; v++ {
		cv := cmap[v]
		members[cursor[cv]] = int32(v)
		cursor[cv]++
	}

	cvwgt, cxadj := carveCoarse(hlv, nc, m)
	for v := 0; v < n; v++ {
		cv := int(cmap[v])
		for c := 0; c < m; c++ {
			cvwgt[cv*m+c] += g.Vwgt[v*m+c]
		}
	}

	// Same single-pass emission as contractInto: coarse vertices ascend, so
	// merged adjacency lists land contiguously in the pooled fine-edge
	// buffer and the exact CSR is a prefix copy; the epoch marker gives one
	// dedup generation per coarse vertex with no clearing.
	s.marker.Grow(nc)
	slot := s.slot[:nc]
	bufAdj, bufWgt := s.edgeBuf(len(g.Adjncy))
	cur := int32(0)
	for cv := int32(0); int(cv) < nc; cv++ {
		s.marker.Next()
		for i := head[cv]; i < head[cv+1]; i++ {
			cur = fillEdges(g, members[i], cmap, cv, &s.marker, slot, bufAdj, bufWgt, cur)
		}
		cxadj[cv+1] = cur
	}
	cadjncy, cadjwgt := carveEdges(hlv, int(cur))
	copy(cadjncy, bufAdj[:cur])
	copy(cadjwgt, bufWgt[:cur])

	return &graph.Graph{Ncon: m, Xadj: cxadj, Adjncy: cadjncy, Adjwgt: cadjwgt, Vwgt: cvwgt}
}

// Level is one rung of the multilevel hierarchy: the graph at this level
// and the map from the next-finer graph's vertices onto it.
type Level struct {
	Graph *graph.Graph
	CMap  []int32 // len = finer graph's vertex count; nil for the finest level
}

// DegreeSkewed reports whether g's degree distribution is skewed enough
// that heavy-edge matching would stall: the maximum degree is both large
// in absolute terms and a large multiple of the average. Well-shaped
// meshes (max degree ~6-26, within ~2x of average) never trip this;
// power-law graphs with hub vertices do. It is the SchemeAuto sniff,
// evaluated once on the finest graph so the decision is a pure function of
// the input and consumes no randomness.
func DegreeSkewed(g *graph.Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return false
	}
	maxDeg := 0
	for v := int32(0); int(v) < n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	// avg*16 compared in edge units: maxDeg*n >= 16 * (2*|E|).
	return maxDeg >= 64 && int64(maxDeg)*int64(n) >= 32*int64(g.NumEdges())
}

// clusterCaps derives the per-constraint cluster weight caps for one
// cluster-coarsening level. Two bounds compose:
//
//   - A global ceiling of 3x the ideal coarsenTo-way share, widened by the
//     balance tolerance the final partition must meet. The factor is
//     looser than matching's 1.5x MaxVertexWeight rule because clusters
//     merge in coarse units — once weights cluster near the cap, two
//     half-full clusters can only combine if the cap leaves a full extra
//     share of headroom — and it still leaves initial partitioning ample
//     granularity: at the default coarsenTo = max(30k, 2000) the cap is at
//     most a tenth of a subdomain's target weight.
//   - A per-level shrink bound of 8x the current level's average vertex
//     weight. Without it, label propagation collapses a 50k-vertex
//     power-law graph straight to the global ceiling in one level (a >12x
//     jump), and the uncoarsening phase gets almost no intermediate levels
//     to refine across — measurably worse cuts. Bounding each level's
//     clusters to ~8 average vertices keeps the hierarchy geometric, like
//     matching's, just steeper.
func clusterCaps(g *graph.Graph, coarsenTo int, tol float64) []int64 {
	n := int64(g.NumVertices())
	caps := make([]int64, g.Ncon)
	for c, t := range g.TotalVertexWeight() {
		caps[c] = 1 + int64(float64(t)*3*(1+tol)/float64(coarsenTo))
		if lvl := 1 + 2*t/n; lvl < caps[c] {
			caps[c] = lvl
		}
	}
	return caps
}

// BuildHierarchy coarsens g until it has at most coarsenTo vertices or
// coarsening stalls (shrink factor worse than 0.95 per level, the
// slow-coarsening cutoff). The returned slice starts with the input graph
// (CMap nil) and ends with the coarsest graph. If opt.Stop fires at a
// level boundary the partial hierarchy is abandoned and nil is returned.
//
// opt.Scheme selects matching (default) or label-propagation cluster
// grouping per level; SchemeAuto resolves to one of the two here, from the
// finest graph's degree distribution. The matching path is bit-identical
// to the pre-scheme pipeline: it consumes the same RNG draws in the same
// order and touches no new state.
func BuildHierarchy(g *graph.Graph, coarsenTo int, rand *rng.RNG, opt Options) []Level {
	scheme := opt.Scheme
	if scheme == SchemeAuto {
		scheme = SchemeMatching
		if DegreeSkewed(g) {
			scheme = SchemeCluster
		}
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 0.05
	}
	levels := []Level{{Graph: g}}
	cur := g
	// One scratch sized at the finest level serves every coarser level.
	ws := newScratch(g.NumVertices(), g.Ncon)
	// With Workers >= 2, one worker pool (and its per-worker scratch) also
	// serves the whole hierarchy; levels below minParallelN drop back to
	// the calling goroutine, which emits identical bytes.
	var ps *pscratch
	if opt.Workers >= 2 {
		ps = newPscratch(opt.Workers, g.Ncon)
		defer ps.close()
	}
	var lps *lp.Scratch
	if scheme == SchemeCluster {
		lps = lp.NewScratch()
	}
	// Matching caps coarse vertex weight at ~1/coarsenTo of the heaviest
	// constraint total so initial partitioning always has room to balance
	// (METIS's rule of thumb). Contraction conserves every constraint
	// total, so the cap computed on the finest graph holds at every level.
	mo := opt
	if scheme == SchemeMatching && mo.MaxVertexWeight == 0 {
		var maxTot int64
		for _, t := range g.TotalVertexWeight() {
			if t > maxTot {
				maxTot = t
			}
		}
		mo.MaxVertexWeight = 1 + maxTot*3/int64(2*coarsenTo)
	}
	for cur.NumVertices() > coarsenTo {
		if opt.Stop != nil && opt.Stop() {
			return nil
		}
		if opt.Trace != nil {
			opt.Trace.Begin("coarsen.level",
				trace.I64("level", int64(len(levels))),
				trace.I64("n", int64(cur.NumVertices())),
				trace.I64("edges", int64(cur.NumEdges())))
		}
		usePar := ps != nil && cur.NumVertices() >= minParallelN
		var coarse *graph.Graph
		var cmap []int32
		var hlv *hier.Level
		if opt.Plan != nil {
			hlv = opt.Plan.Begin(cur.NumVertices())
		}
		if scheme == SchemeCluster {
			caps := clusterCaps(cur, coarsenTo, tol)
			if opt.MaxVertexWeight > 0 {
				for c := range caps {
					caps[c] = opt.MaxVertexWeight
				}
			}
			lpopt := lp.Options{
				Rounds:           opt.LPRounds,
				MaxClusterWeight: caps,
				Stop:             opt.Stop,
				Trace:            opt.Trace,
			}
			if usePar {
				lpopt.Pool = ps.pool
			}
			var nc int
			cmap, nc = lp.ClusterInto(cur, rand, lpopt, lps)
			if cmap == nil { // Stop fired mid-pass
				if opt.Trace != nil {
					opt.Trace.End(trace.I64("aborted", 1))
				}
				return nil
			}
			if check.Enabled {
				check.ClusterCaps(fmt.Sprintf("coarsen: level %d cluster caps", len(levels)), cur, cmap, nc, caps)
			}
			if opt.Trace != nil {
				opt.Trace.Begin("lp.contract", trace.I64("clusters", int64(nc)))
			}
			if hlv != nil {
				// lp owns its returned cmap; move it into the plan's carved
				// copy so retirement accounting covers every retained array.
				carved := hlv.CMap()
				copy(carved, cmap)
				cmap = carved
			}
			if usePar {
				coarse = contractMapParInto(cur, cmap, nc, ws, ps, hlv)
			} else {
				coarse = contractMapInto(cur, cmap, nc, ws, hlv)
			}
			if opt.Trace != nil {
				opt.Trace.End()
			}
		} else {
			// Below minParallelN the kernel runs inline on one worker.
			var mps *pscratch
			workers := 1
			if usePar {
				mps, workers = ps, opt.Workers
			}
			if opt.Trace != nil {
				opt.Trace.Begin("coarsen.match",
					trace.I64("workers", int64(workers)),
					trace.I64("n", int64(cur.NumVertices())))
			}
			match, chunks, rescans := matchInto(cur, rand, mo, ws, mps)
			if opt.Trace != nil {
				opt.Trace.End(
					trace.I64("chunks", int64(chunks)),
					trace.I64("rescans", int64(rescans)))
			}
			if check.Enabled {
				check.Matching(fmt.Sprintf("coarsen: level %d matching", len(levels)),
					cur, match, mo.MaxVertexWeight)
			}
			if usePar {
				if opt.Trace != nil {
					opt.Trace.Begin("coarsen.contract",
						trace.I64("workers", int64(opt.Workers)))
				}
				coarse, cmap = contractParInto(cur, match, ps, hlv)
				if opt.Trace != nil {
					opt.Trace.End(trace.I64("coarse_n", int64(coarse.NumVertices())))
				}
			} else {
				coarse, cmap = contractInto(cur, match, ws, hlv)
			}
		}
		if opt.Trace != nil {
			opt.Trace.End(
				trace.I64("coarse_n", int64(coarse.NumVertices())),
				trace.I64("coarse_edges", int64(coarse.NumEdges())))
		}
		if coarse.NumVertices() > cur.NumVertices()*19/20 {
			// Diminishing returns: stop before wasting levels. The level
			// just carved is discarded, so release its plan region too.
			if opt.Plan != nil {
				opt.Plan.RetireTop()
			}
			break
		}
		levels = append(levels, Level{Graph: coarse, CMap: cmap})
		cur = coarse
	}
	return levels
}
