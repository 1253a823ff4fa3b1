// Shared-memory parallel coarsening kernels: propose/commit heavy-edge
// matching and range-merged contraction. Matching has this one kernel,
// which runs inline on one worker when no pool is in use; contraction
// produces output bit-identical to the sequential contractInto and
// contractMapInto for every worker count. The determinism argument is
// spelled out in DESIGN.md, "Parallel coarsening contract": Options.Workers
// changes wall clock only, never the hierarchy, the partition, or a service
// cache key.
package coarsen

import (
	"repro/internal/arena"
	"repro/internal/graph"
	"repro/internal/hier"
	"repro/internal/par"
	"repro/internal/rng"
)

const (
	// minParallelN is the level size below which BuildHierarchy runs the
	// matching kernel inline on one worker and contracts with the
	// sequential kernels even when Workers >= 2: the chunk barriers cost
	// more than the scan. Safe at any value — both paths emit identical
	// bytes — so this is purely a latency knob.
	minParallelN = 2048
	// chunksPerWorker fixes the matching chunk count at workers *
	// chunksPerWorker. More chunks mean fresher snapshots (fewer commit
	// rescans) but more barriers, and every chunk re-reads the whole
	// visit-position array. At 4, with 2 workers, about 6% of each mrng2
	// level's vertices are rescanned; 8 and 16 were no faster there.
	chunksPerWorker = 4
	// linearDedupMax is the member-degree-sum bound under which contraction
	// dedups a coarse vertex's merged adjacency by scanning its (cache-hot,
	// contiguous) output segment instead of stamping the epoch marker.
	// Either path emits identical bytes; the scan wins only on genuinely
	// short segments (power-law leaves, chains), the marker everywhere else
	// — at mesh degree sums (~26) the quadratic scan already loses.
	linearDedupMax = 12
)

// pworker is the per-worker contraction scratch: every worker dedups into
// its own marker/slot pair; merged edges go to the worker's disjoint
// segment of the shared stage, so the only shared writes are
// range-disjoint.
type pworker struct {
	marker   arena.Marker
	slot     []int32
	combined []int64 // Ncon-wide tie-break accumulator (propose phase)
}

func (w *pworker) growDedup(cn int) {
	w.marker.Grow(cn)
	if cap(w.slot) < cn {
		w.slot = make([]int32, cn)
	}
}

// pscratch is the hierarchy-lifetime parallel state: the worker pool and
// the buffers shared across levels. Sized at the finest level, like the
// sequential scratch.
type pscratch struct {
	pool     *par.Pool
	rep      []int32 // representative fine vertex per coarse vertex
	counts   []int32 // workers+1 prefix-sum cells
	offs     []int32 // workers+1 stage offsets (contraction emission)
	stageAdj []int32 // shared merged-edge stage, fine-nnz capacity total
	stageWgt []int32
	ws       []*pworker
}

func newPscratch(workers, ncon int) *pscratch {
	ps := &pscratch{
		pool:   par.NewPool(workers),
		counts: make([]int32, workers+1),
		offs:   make([]int32, workers+1),
		ws:     make([]*pworker, workers),
	}
	for i := range ps.ws {
		ps.ws[i] = &pworker{combined: make([]int64, ncon)}
	}
	return ps
}

func (ps *pscratch) close() { ps.pool.Close() }

// growStage returns the shared emission stage with room for nnz merged
// edges in total. Unlike the per-worker nnz-sized buffers it replaced, the
// stage footprint is one fine level's adjacency regardless of worker count
// (each worker owns the [offs[w], offs[w+1]) segment), so contraction
// memory no longer scales with Options.Workers.
func (ps *pscratch) growStage(nnz int) ([]int32, []int32) {
	if cap(ps.stageAdj) < nnz {
		ps.stageAdj = make([]int32, nnz)
		ps.stageWgt = make([]int32, nnz)
	}
	return ps.stageAdj[:nnz], ps.stageWgt[:nnz]
}

func (ps *pscratch) repBuf(cn int) []int32 {
	if cap(ps.rep) < cn {
		ps.rep = make([]int32, cn)
	}
	return ps.rep[:cn]
}

// matchInto computes the heavy-edge matching of Match into s.match (which
// is also returned; the caller must not retain it past the scratch's next
// reuse), with the candidate scans spread over ps's pool, or run inline on
// one worker when ps is nil. The mates are a pure function of (g, opt, the
// RNG stream): the worker count changes wall clock only.
//
// The matching is the SC'98 sequential greedy scan over a random visit
// order. The order is cut into chunks; workers propose a mate per vertex
// from a frozen snapshot of the match array, then a sequential in-order
// commit applies the proposals. A proposal is reusable at commit time
// exactly when its mate is still unmatched: the selection rule (max edge
// weight, then minimum combined jaggedness under BalancedEdge, then first
// in adjacency order) is an argmax over the candidate set, and commits only
// ever *remove* candidates, so the argmax over the shrunken set either is
// the proposal itself or requires the rescan the commit loop performs. The
// returned rescans count is the number of such re-derivations
// (deterministic, traced).
//
// Proposals are evaluated in vertex-id order, not visit order: a proposal
// depends only on the vertex and the chunk's snapshot, so evaluation order
// cannot change it, and the id-order sweep turns the adjacency, match and
// weight reads into forward scans instead of one cache miss per visit.
func matchInto(g *graph.Graph, rand *rng.RNG, opt Options, s *scratch, ps *pscratch) (match []int32, chunks, rescans int) {
	n := g.NumVertices()
	match = s.match[:n]
	for i := range match {
		match[i] = -1
	}
	order := s.order[:n]
	rand.Perm(order)
	// pos inverts the visit order; slot is idle until contraction.
	pos := s.slot[:n]
	for idx, v := range order {
		pos[v] = int32(idx)
	}

	prop := s.propBuf(n)
	workers := 1
	if ps != nil {
		workers = ps.pool.Workers()
	}
	chunk := (n + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if chunk < minParallelN/chunksPerWorker {
		chunk = minParallelN / chunksPerWorker
	}
	// One closure for every chunk (the bounds travel through lo and hi,
	// mutated only between Run calls): a matching pass allocates nothing
	// per chunk.
	var lo, hi int
	propose := func(w int) {
		combined := s.combined
		if ps != nil {
			combined = ps.ws[w].combined
		}
		vlo, vhi := par.Span(n, workers, w)
		proposeRange(g, opt, match, pos, prop, int32(lo), int32(hi), vlo, vhi, combined)
	}
	for lo = 0; lo < n; lo += chunk {
		hi = min(lo+chunk, n)
		chunks++
		if ps != nil {
			ps.pool.Run(propose)
		} else {
			propose(0)
		}
		// In-order commit: identical to the sequential scan because a
		// surviving proposal is the argmax over a superset of the current
		// candidates, and an invalidated one is re-derived from current
		// state by the same rule.
		for idx := lo; idx < hi; idx++ {
			v := order[idx]
			if match[v] >= 0 {
				continue
			}
			best := prop[idx]
			if best != v && match[best] >= 0 {
				best = bestMate(g, opt, match, v, s.combined)
				rescans++
			}
			if best != v {
				match[v] = best
				match[best] = v
			} else {
				match[v] = v
			}
		}
	}
	return match, chunks, rescans
}

// proposeRange fills prop[pos[v]] for every vertex v in [vlo, vhi) whose
// visit position lies in the chunk [lo, hi) with v's preferred mate under
// the snapshot match state (-1 for already-matched vertices, v itself when
// no candidate fits). Reads only; every write lands in the caller's prop
// chunk, at a position no other vertex owns.
func proposeRange(g *graph.Graph, opt Options, match, pos, prop []int32, lo, hi int32, vlo, vhi int, combined []int64) {
	if g.Ncon == 1 {
		// Single-constraint fast path: a 1-component weight vector has
		// jaggedness 1 whatever its value, so the BalancedEdge tie-break
		// can never replace the first maximum-weight candidate and the cap
		// test is one 64-bit add. Same selection, ~2x less work per edge.
		xadj, adjncy, adjwgt, vwgt := g.Xadj, g.Adjncy, g.Adjwgt, g.Vwgt
		maxW := opt.MaxVertexWeight
		for v := int32(vlo); v < int32(vhi); v++ {
			p := pos[v]
			if p < lo || p >= hi {
				continue
			}
			if match[v] >= 0 {
				prop[p] = -1
				continue
			}
			vw := int64(vwgt[v])
			best, bestW := v, int32(-1)
			for i := int(xadj[v]); i < int(xadj[v+1]); i++ {
				u := adjncy[i]
				if match[u] >= 0 || u == v {
					continue
				}
				w := adjwgt[i]
				if w <= bestW {
					continue
				}
				if maxW > 0 && vw+int64(vwgt[u]) > maxW {
					continue
				}
				best, bestW = u, w
			}
			prop[p] = best
		}
		return
	}
	for v := int32(vlo); v < int32(vhi); v++ {
		p := pos[v]
		if p < lo || p >= hi {
			continue
		}
		if match[v] >= 0 {
			prop[p] = -1
			continue
		}
		prop[p] = bestMate(g, opt, match, v, combined)
	}
}

// bestMate is the SC'98 mate-selection rule, shared by the propose and
// rescan paths: the unmatched neighbor with the maximum edge weight that
// fits the cap, ties broken by minimum combined jaggedness under
// BalancedEdge and then by adjacency order. Returns v itself when no
// candidate fits.
func bestMate(g *graph.Graph, opt Options, match []int32, v int32, combined []int64) int32 {
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
	if best < 0 {
		return v
	}
	return best
}

// contractParInto is contractInto with every pass spread over the pool:
// coarse ids by per-range count + prefix sum, weights and merged edges by
// disjoint coarse-vertex ranges into per-worker buffers, final CSR by one
// prefix sum over the shared count array and a parallel segment copy.
// Coarse ids, member order, and adjacency emission order all match the
// sequential pass, so the output graph is byte-identical.
func contractParInto(g *graph.Graph, match []int32, ps *pscratch, hlv *hier.Level) (*graph.Graph, []int32) {
	n := g.NumVertices()
	m := g.Ncon
	workers := ps.pool.Workers()
	cmap := carveCMap(hlv, n)

	// Coarse ids: count representatives per fine range, prefix-sum the
	// counts, then number each range from its base — the same ascending
	// assignment the sequential pass makes. rep inverts cmap on
	// representatives so the emission pass can find each coarse vertex's
	// members without rescanning.
	counts := ps.counts[:workers+1]
	ps.pool.Run(func(w int) {
		lo, hi := par.Span(n, workers, w)
		c := int32(0)
		for v := lo; v < hi; v++ {
			if match[v] >= int32(v) {
				c++
			}
		}
		counts[w+1] = c
	})
	counts[0] = 0
	for w := 0; w < workers; w++ {
		counts[w+1] += counts[w]
	}
	cn := counts[workers]
	rep := ps.repBuf(int(cn))
	ps.pool.Run(func(w int) {
		lo, hi := par.Span(n, workers, w)
		cv := counts[w]
		for v := lo; v < hi; v++ {
			if match[v] >= int32(v) {
				cmap[v] = cv
				rep[cv] = int32(v)
				cv++
			}
		}
	})
	// Mates copy their representative's id. The representative has the
	// smaller fine id, so its cmap entry was written by the (completed)
	// previous pass, possibly by a different worker — hence the barrier.
	ps.pool.Run(func(w int) {
		lo, hi := par.Span(n, workers, w)
		for v := lo; v < hi; v++ {
			if match[v] < int32(v) {
				cmap[v] = cmap[match[v]]
			}
		}
	})

	cvwgt, cxadj := carveCoarse(hlv, int(cn), m)
	// Emission staging: one pass computes each worker's exact merged-edge
	// capacity (the degree sum of its coarse range), a prefix sum turns the
	// needs into disjoint offsets into the shared stage, and the emission
	// pass writes at those offsets.
	offs := ps.offs[:workers+1]
	ps.pool.Run(func(w int) {
		clo, chi := par.Span(int(cn), workers, w)
		need := int32(0)
		for cv := clo; cv < chi; cv++ {
			v := rep[cv]
			need += int32(g.Degree(v))
			if u := match[v]; u != v {
				need += int32(g.Degree(u))
			}
		}
		offs[w+1] = need
	})
	offs[0] = 0
	for w := 0; w < workers; w++ {
		offs[w+1] += offs[w]
	}
	stageAdj, stageWgt := ps.growStage(int(offs[workers]))
	ps.pool.Run(func(w int) {
		clo, chi := par.Span(int(cn), workers, w)
		pw := ps.ws[w]
		pw.growDedup(int(cn))
		bufAdj := stageAdj[offs[w]:offs[w+1]]
		bufWgt := stageWgt[offs[w]:offs[w+1]]
		cur := int32(0)
		for cv := clo; cv < chi; cv++ {
			v := rep[cv]
			u := match[v]
			degSum := g.Degree(v)
			for c := 0; c < m; c++ {
				cvwgt[cv*m+c] = g.Vwgt[int(v)*m+c]
			}
			if u != v {
				for c := 0; c < m; c++ {
					cvwgt[cv*m+c] += g.Vwgt[int(u)*m+c]
				}
				degSum += g.Degree(u)
			}
			start := cur
			if degSum <= linearDedupMax {
				cur = emitLinear(g, v, cmap, int32(cv), start, bufAdj, bufWgt, cur)
				if u != v {
					cur = emitLinear(g, u, cmap, int32(cv), start, bufAdj, bufWgt, cur)
				}
			} else {
				pw.marker.Next()
				cur = emitMarker(g, v, cmap, int32(cv), &pw.marker, pw.slot, bufAdj, bufWgt, cur)
				if u != v {
					cur = emitMarker(g, u, cmap, int32(cv), &pw.marker, pw.slot, bufAdj, bufWgt, cur)
				}
			}
			cxadj[cv+1] = cur - start
		}
	})
	return assembleCSR(ps, m, int(cn), cvwgt, cxadj, hlv), cmap
}

// contractMapParInto is contractMapInto (many-to-one cluster contraction)
// with the weight and emission passes spread over coarse-vertex ranges.
// The counting sort that groups members stays sequential: it is O(n) with
// serial dependences and a small fraction of the level.
func contractMapParInto(g *graph.Graph, cmap []int32, nc int, s *scratch, ps *pscratch, hlv *hier.Level) *graph.Graph {
	n := g.NumVertices()
	m := g.Ncon
	workers := ps.pool.Workers()

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
	// Same two-pass staging as contractParInto: exact per-worker needs,
	// prefix sum, then emission into disjoint shared-stage segments.
	offs := ps.offs[:workers+1]
	ps.pool.Run(func(w int) {
		clo, chi := par.Span(nc, workers, w)
		need := int32(0)
		for i := head[clo]; i < head[chi]; i++ {
			need += int32(g.Degree(members[i]))
		}
		offs[w+1] = need
	})
	offs[0] = 0
	for w := 0; w < workers; w++ {
		offs[w+1] += offs[w]
	}
	stageAdj, stageWgt := ps.growStage(int(offs[workers]))
	ps.pool.Run(func(w int) {
		clo, chi := par.Span(nc, workers, w)
		pw := ps.ws[w]
		pw.growDedup(nc)
		bufAdj := stageAdj[offs[w]:offs[w+1]]
		bufWgt := stageWgt[offs[w]:offs[w+1]]
		cur := int32(0)
		for cv := clo; cv < chi; cv++ {
			degSum := 0
			for i := head[cv]; i < head[cv+1]; i++ {
				v := members[i]
				degSum += g.Degree(v)
				for c := 0; c < m; c++ {
					cvwgt[cv*m+c] += g.Vwgt[int(v)*m+c]
				}
			}
			start := cur
			if degSum <= linearDedupMax {
				for i := head[cv]; i < head[cv+1]; i++ {
					cur = emitLinear(g, members[i], cmap, int32(cv), start, bufAdj, bufWgt, cur)
				}
			} else {
				pw.marker.Next()
				for i := head[cv]; i < head[cv+1]; i++ {
					cur = emitMarker(g, members[i], cmap, int32(cv), &pw.marker, pw.slot, bufAdj, bufWgt, cur)
				}
			}
			cxadj[cv+1] = cur - start
		}
	})
	return assembleCSR(ps, m, nc, cvwgt, cxadj, hlv)
}

// emitLinear appends/merges fine vertex v's edges into coarse vertex cv's
// adjacency at buf[cur:], deduplicating by scanning the contiguous output
// segment written for cv since start. Same first-occurrence order and
// weight sums as fillEdges' marker dedup; the scan of a short, cache-hot
// segment beats the marker's random stamp/slot traffic on low-degree mesh
// vertices. The caller bounds the segment by linearDedupMax.
func emitLinear(g *graph.Graph, v int32, cmap []int32, cv int32, start int32, bufAdj, bufWgt []int32, cur int32) int32 {
	xadj, adjncy, adjwgt := g.Xadj, g.Adjncy, g.Adjwgt
	for i := int(xadj[v]); i < int(xadj[v+1]); i++ {
		cu := cmap[adjncy[i]]
		if cu == cv {
			continue
		}
		w := adjwgt[i]
		j := start
		for ; j < cur; j++ {
			if bufAdj[j] == cu {
				bufWgt[j] += w
				break
			}
		}
		if j == cur {
			bufAdj[cur] = cu
			bufWgt[cur] = w
			cur++
		}
	}
	return cur
}

// emitMarker is fillEdges on the per-worker marker/slot pair: the caller
// bumps the generation once per coarse vertex, all of whose members then
// share it, exactly like the sequential pass.
func emitMarker(g *graph.Graph, v int32, cmap []int32, cv int32, mk *arena.Marker, slot, bufAdj, bufWgt []int32, cur int32) int32 {
	xadj, adjncy, adjwgt := g.Xadj, g.Adjncy, g.Adjwgt
	for i := int(xadj[v]); i < int(xadj[v+1]); i++ {
		cu := cmap[adjncy[i]]
		if cu == cv {
			continue
		}
		if mk.TryMark(cu) {
			slot[cu] = cur
			bufAdj[cur] = cu
			bufWgt[cur] = adjwgt[i]
			cur++
		} else {
			bufWgt[slot[cu]] += adjwgt[i]
		}
	}
	return cur
}

// assembleCSR turns the per-coarse-vertex counts in cxadj (written
// range-disjointly by the workers) into offsets by one sequential prefix
// sum, then copies each worker's contiguous stage segment into place in
// parallel.
func assembleCSR(ps *pscratch, m, cn int, cvwgt, cxadj []int32, hlv *hier.Level) *graph.Graph {
	workers := ps.pool.Workers()
	for cv := 0; cv < cn; cv++ {
		cxadj[cv+1] += cxadj[cv]
	}
	cadjncy, cadjwgt := carveEdges(hlv, int(cxadj[cn]))
	ps.pool.Run(func(w int) {
		clo, chi := par.Span(cn, workers, w)
		base := cxadj[clo]
		length := cxadj[chi] - base
		off := ps.offs[w]
		copy(cadjncy[base:base+length], ps.stageAdj[off:off+length])
		copy(cadjwgt[base:base+length], ps.stageWgt[off:off+length])
	})
	return &graph.Graph{Ncon: m, Xadj: cxadj, Adjncy: cadjncy, Adjwgt: cadjwgt, Vwgt: cvwgt}
}
