package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	partition "repro"
	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/initpart"
	"repro/internal/kwayrefine"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pcoarsen"
	"repro/internal/pgraph"
	"repro/internal/pinit"
	"repro/internal/prefine"
	"repro/internal/rng"
	"repro/internal/trace"
)

// The pipeline constants the layer replays below restate; the fidelity
// check fails loudly if they ever drift from the program's.
const (
	maxRestarts = 2
	restartMix  = 0x9e3779b97f4a7c15
)

// callOut is what one partition call reports.
type callOut struct {
	labels []int32
	cut    int64
	imb    float64
	sim    float64 // simulated T3E seconds, parallel only
}

// callPublic is one untraced call of the public API.
func callPublic(w workload, g *graph.Graph, seed uint64) (callOut, error) {
	if w.kind == kindParallel {
		labels, st, err := partition.Parallel(g, w.k, w.p, partition.ParallelOptions{Seed: seed, Tol: tol})
		return callOut{labels, st.EdgeCut, st.Imbalance, st.SimTime}, err
	}
	labels, st, err := partition.Serial(g, w.k, partition.SerialOptions{
		Seed: seed, Tol: tol, CoarsenWorkers: w.workers,
	})
	return callOut{labels, st.EdgeCut, st.Imbalance, 0}, err
}

// instance is one entry of a library run's fixed list: a weighted graph
// and the seed it is partitioned with.
type instance struct {
	g    *graph.Graph
	seed uint64
}

// buildInstances generates a library run's inputs: one weighted mesh and
// w.seeds instances, instance i partitioning it with seed partSeed(seed, i).
func buildInstances(w workload, name string, seed uint64) ([]instance, error) {
	s := partSeed(seed, 0)
	g, err := buildGraph(name, s*7919+7, s+100)
	if err != nil {
		return nil, err
	}
	ins := make([]instance, w.seeds)
	for i := range ins {
		ins[i] = instance{g, partSeed(seed, i)}
	}
	return ins, nil
}

// runLibrary runs a library workload: partition calls cycling through the
// run's instances until the time is up.
func runLibrary(w workload, o options) (*result, error) {
	name := w.graphName(o.tiny)
	res := &result{}
	ins, setupS, err := setup(res, func() ([]instance, error) { return buildInstances(w, name, o.seed) }, nil)
	if err != nil {
		return nil, err
	}
	res.note("%s instances=%d", inputNote(ins[0].g, name), len(ins))
	if o.trace {
		traceLibrary(w, ins, o, res)
		return res, nil
	}

	sc := newSeedCheck()
	var times, sims []float64
	var imbMax float64
	start := time.Now()
	for i := 0; i < len(ins) || since(start) < o.seconds; i++ {
		in := ins[i%len(ins)]
		res.attempted++
		// Every call starts from a collected heap, so no call pays for
		// the previous call's garbage.
		runtime.GC()
		t := time.Now()
		out, err := callPublic(w, in.g, in.seed)
		dt := since(t)
		if err != nil {
			res.fail("seed %d: %v", in.seed, err)
			continue
		}
		if err := checkPartition(in.g, w.k, out.labels, out.cut, out.imb); err != nil {
			res.fail("seed %d: %v", in.seed, err)
			continue
		}
		if err := sc.add(in.seed, out.labels, out.cut); err != nil {
			res.fail("%v", err)
			continue
		}
		times = append(times, dt)
		sims = append(sims, out.sim)
		imbMax = max(imbMax, out.imb)
	}
	var total float64
	for _, t := range times {
		total += t
	}
	var mvtx float64
	if total > 0 {
		mvtx = float64(ins[0].g.NumVertices()) * float64(len(times)) / total / 1e6
	}
	res.note("calls=%d part_s=%.4f", len(times), times)
	if w.kind == kindParallel {
		res.note("sim_s=%.6f (median simulated T3E seconds per call)", median(sims))
	}
	seeds := make([]uint64, len(ins))
	cuts := make([]int64, len(ins))
	for i, in := range ins {
		seeds[i], cuts[i] = in.seed, sc.cut[in.seed]
	}
	res.note("cut per seed: %d", cuts)
	res.addEndToEnd(endToEnd{
		partP50: median(times), mvtxPerS: mvtx, edgeCut: sc.meanCut(seeds),
		imbMax: imbMax, setupS: setupS,
	})
	return res, nil
}

// endToEnd holds the workload-specific end-to-end figures of a run.
type endToEnd struct {
	partP50, mvtxPerS, edgeCut, imbMax, setupS float64
}

// addEndToEnd reports every end-to-end metric, in BENCHMARK.json order.
func (r *result) addEndToEnd(e endToEnd) {
	okFrac := 0.0
	if r.attempted > 0 {
		okFrac = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	r.note("fail_frac=%g (%d of %d operations failed)", 1-okFrac, r.failed, r.attempted)
	rt := readRuntime()
	r.note("process: gc_cycles=%.0f gc_cpu_frac=%.4f alloc_mb=%.0f", rt.gcCycles, rt.gcCPU/rt.totalCPU, rt.allocMB)
	r.add("part_p50_s", e.partP50, "s")
	r.add("mvtx_per_s", e.mvtxPerS, "Mvtx/s")
	r.add("edge_cut", e.edgeCut, "count")
	r.add("imbalance_max", e.imbMax, "ratio")
	r.add("ok_frac", okFrac, "ratio")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("setup_s", e.setupS, "s")
}

// traceLibrary is the traced run of a library workload: for each seed, one
// untraced public call and one layer-driving call whose labels must be
// identical; their wall-time difference is the tracing overhead.
func traceLibrary(w workload, ins []instance, o options, res *result) {
	var ss samples
	start := time.Now()
	for i := 0; i < 1 || since(start) < o.seconds; i++ {
		g, seed := ins[i%len(ins)].g, ins[i%len(ins)].seed
		res.attempted += 2
		runtime.GC()
		t := time.Now()
		want, err := callPublic(w, g, seed)
		untraced := since(t)
		if err != nil {
			res.fail("seed %d: %v", seed, err)
			continue
		}
		if err := checkPartition(g, w.k, want.labels, want.cut, want.imb); err != nil {
			res.fail("seed %d: %v", seed, err)
		}
		s := sample{}
		runtime.GC()
		t = time.Now()
		var got callOut
		if w.kind == kindParallel {
			got = driveParallel(g, w, seed, s)
		} else {
			got = driveSerial(g, w, seed, s, res, i == 0)
		}
		s["trace.wall_s"] = since(t)
		s["trace.overhead_s"] = s["trace.wall_s"] - untraced
		if !slices.Equal(got.labels, want.labels) || got.sim != want.sim {
			res.fail("fidelity: seed %d: the layer-driving run's labels differ from the public API's", seed)
			res.fidelityFailed = true
		}
		if err := checkPartition(g, w.k, got.labels, got.cut, got.imb); err != nil {
			res.fail("traced seed %d: %v", seed, err)
		}
		s["mem.finest_csr_mb"] = float64(csrBytes(g)) / mb
		ss = append(ss, s)
	}
	ss.shareNote(res)
	ss.addPerLayer(res)
}

// driveSerial replays the serial pipeline (partition.Serial) by calling
// coarsen.BuildHierarchy, initpart.RecursiveBisect and
// kwayrefine.Refiner.Refine itself, with spans around each call.
func driveSerial(g *graph.Graph, w workload, seed uint64, s sample, res *result, levelNote bool) callOut {
	tr := trace.New("perfbench")
	rk := tr.Rank(0)
	before := readRuntime()
	best := serialOnce(g, w, seed, rk, s)
	for attempt := 1; attempt <= maxRestarts && best.imb > 1+2*tol; attempt++ {
		next := serialOnce(g, w, seed^(uint64(attempt)*restartMix), rk, s)
		if next.imb < best.imb || (next.imb <= 1+tol && next.cut < best.cut) {
			best = next
		}
		s["serial.restarts"] = float64(attempt)
	}
	s.addGC(before, readRuntime())
	ph := tr.PhaseSeconds()
	s["coarsen.s"] = ph["coarsen"]
	s["initpart.s"] = ph["initpart"]
	s["serial.project_s"] = ph["serial.project"]
	s["kwayrefine.finest_s"] = ph["kwayrefine@0"]
	var levels []string
	for lvl := 0; ; lvl++ {
		sec, ok := ph[fmt.Sprintf("kwayrefine@%d", lvl)]
		if !ok {
			break
		}
		s["kwayrefine.s"] += sec
		levels = append(levels, fmt.Sprintf("%d:%.4f", lvl, sec))
	}
	if levelNote {
		res.note("refine seconds per level (level:s): %s", strings.Join(levels, " "))
	}
	return best
}

// serialOnce is one attempt of the serial pipeline (serial.partitionOnce
// with the hierarchy plan off).
func serialOnce(g *graph.Graph, w workload, seed uint64, rk *trace.Rank, s sample) callOut {
	k := w.k
	coarsenTo := max(30*k, 2000)
	rand := rng.New(seed)

	rk.Begin("coarsen")
	levels := coarsen.BuildHierarchy(g, coarsenTo, rand, coarsen.Options{
		Tol: tol, BalancedEdge: true, Workers: w.workers,
	})
	rk.End()
	s["mem.heap_live_mb.coarsen"] = readRuntime().liveMB
	coarsest := levels[len(levels)-1].Graph
	s["coarsen.levels"] = float64(len(levels))
	s["coarsen.coarsest_n"] = float64(coarsest.NumVertices())
	var shrink, hier float64
	for l := 1; l < len(levels); l++ {
		shrink += float64(levels[l].Graph.NumVertices()) / float64(levels[l-1].Graph.NumVertices())
		hier += float64(4*len(levels[l].CMap)) + float64(csrBytes(levels[l].Graph))
	}
	if len(levels) > 1 {
		s["coarsen.shrink"] = shrink / float64(len(levels)-1)
	}
	s["mem.hier_mb"] = hier / mb

	rk.Begin("initpart")
	part := initpart.RecursiveBisect(coarsest, k, rand, initpart.Options{Tol: tol})
	rk.End()
	s["initpart.cut"] = float64(metrics.EdgeCut(coarsest, part))

	refiner := kwayrefine.NewRefiner(k, g.Ncon, kwayrefine.Options{Tol: tol})
	refiner.Reserve(g)
	refine := func(lvl int, gl *graph.Graph) {
		rk.Begin(fmt.Sprintf("kwayrefine@%d", lvl))
		s["kwayrefine.moves"] += float64(refiner.Refine(gl, part, rand))
		rk.End()
	}
	refine(len(levels)-1, coarsest)
	for lvl := len(levels) - 1; lvl > 0; lvl-- {
		rk.Begin("serial.project")
		finer := levels[lvl-1].Graph
		cmap := levels[lvl].CMap
		fpart := make([]int32, finer.NumVertices())
		for v := range fpart {
			fpart[v] = part[cmap[v]]
		}
		part = fpart
		levels[lvl] = coarsen.Level{}
		rk.End()
		refine(lvl-1, finer)
	}
	s["kwayrefine.boundary_frac"] = float64(refiner.BoundarySize()) / float64(g.NumVertices())
	s["mem.heap_live_mb.refine"] = readRuntime().liveMB
	return callOut{labels: part, cut: metrics.EdgeCut(g, part), imb: metrics.MaxImbalance(g, part, k)}
}

// driveParallel replays the parallel pipeline (partition.Parallel) by
// calling pgraph.Distribute, pcoarsen.BuildHierarchy, pinit.Partition and
// prefine.Refiner.Refine itself inside mpi.Run, with spans on every rank.
func driveParallel(g *graph.Graph, w workload, seed uint64, s sample) callOut {
	tr := trace.New("perfbench")
	before := readRuntime()
	best := parallelOnce(g, w, seed, tr, s)
	for attempt := 1; attempt <= maxRestarts && best.imb > 1+2*tol; attempt++ {
		next := parallelOnce(g, w, seed^(uint64(attempt)*restartMix), tr, s)
		next.sim += best.sim
		if next.imb < best.imb || (next.imb <= 1+tol && next.cut < best.cut) {
			best = next
		} else {
			best.sim = next.sim
		}
	}
	s.addGC(before, readRuntime())
	ph := tr.PhaseSeconds()
	for _, l := range []string{"pgraph", "pcoarsen", "pinit", "prefine"} {
		s[l+".s"] = ph[l]
	}
	s["mpi.sim_s"] = best.sim
	return best
}

// rankOut is what one simulated rank reports to driveParallel.
type rankOut struct {
	part            []int32
	levels          int
	coarsestN       int
	moves           int64
	hierBytes       int64
	calls, bytes    int64
	simWait, liveMB float64
}

// parallelOnce is one attempt of the parallel pipeline
// (parallel.partitionOnce).
func parallelOnce(g *graph.Graph, w workload, seed uint64, tr *trace.Tracer, s sample) callOut {
	k := w.k
	coarsenTo := max(30*k, 2000)
	outs := make([]rankOut, w.p)
	run := mpi.Run(w.p, mpi.T3E(), func(c *mpi.Comm) {
		rk := tr.Rank(c.Rank())
		rand := rng.New(seed).Derive(uint64(c.Rank()))
		out := &outs[c.Rank()]

		rk.Begin("pgraph")
		dg := pgraph.Distribute(c, g)
		rk.End()
		rk.Begin("pcoarsen")
		levels := pcoarsen.BuildHierarchy(dg, coarsenTo, rand, pcoarsen.Options{BalancedEdge: true})
		rk.End()
		out.liveMB = readRuntime().liveMB
		for _, l := range levels[1:] {
			out.hierBytes += 4 * int64(len(l.CMap)+len(l.DG.Xadj)+len(l.DG.Adjncy)+len(l.DG.Adjwgt)+len(l.DG.Vwgt))
		}
		coarsest := levels[len(levels)-1].DG

		rk.Begin("pinit")
		partAll, _ := pinit.Partition(coarsest, k, rand, pinit.Options{Tol: tol})
		rk.End()
		first := coarsest.First()
		part := make([]int32, coarsest.NLocal())
		copy(part, partAll[first:int(first)+coarsest.NLocal()])

		ropt := prefine.Options{Tol: tol, Scheme: prefine.Reservation}
		rk.Begin("prefine")
		out.moves += prefine.NewRefiner(coarsest, part, k, ropt).Refine(rand)
		rk.End()
		for lvl := len(levels) - 1; lvl > 0; lvl-- {
			rk.Begin("pgraph")
			part = levels[lvl].DG.FetchByGlobal(levels[lvl].CMap, part)
			rk.End()
			rk.Begin("prefine")
			out.moves += prefine.NewRefiner(levels[lvl-1].DG, part, k, ropt).Refine(rand)
			rk.End()
		}
		out.part, _ = c.AllgathervI32(part)
		out.levels, out.coarsestN = len(levels), coarsest.GlobalN()
		for kind := mpi.Collective(0); int(kind) < mpi.NumCollectives; kind++ {
			cs := c.CollectiveStats(kind)
			out.calls += cs.Calls
			out.bytes += cs.Bytes
			out.simWait += cs.SimWait
		}
	})
	// Rank 0 stands for the replicated figures (levels, moves, calls); bytes
	// and hierarchy sizes add up over ranks.
	r0 := outs[0]
	s["coarsen.levels"] = float64(r0.levels)
	s["coarsen.coarsest_n"] = float64(r0.coarsestN)
	s["prefine.moves"] += float64(r0.moves)
	s["mpi.calls"] += float64(r0.calls)
	s["mpi.simwait_s"] += r0.simWait
	s["mem.heap_live_mb.coarsen"] = r0.liveMB
	var bytes, hier int64
	for _, o := range outs {
		bytes += o.bytes
		hier += o.hierBytes
	}
	s["mpi.mb"] += float64(bytes) / mb
	s["mem.hier_mb"] = float64(hier) / mb
	labels := append([]int32(nil), r0.part...)
	return callOut{labels: labels, cut: metrics.EdgeCut(g, labels), imb: metrics.MaxImbalance(g, labels, k), sim: run.SimTime}
}
