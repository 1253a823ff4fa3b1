package main

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
)

// perLayer lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. A metric of a layer the workload does not enter
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"coarsen.s", "s"},
	{"coarsen.levels", "count"},
	{"coarsen.coarsest_n", "count"},
	{"coarsen.shrink", "ratio"},
	{"initpart.s", "s"},
	{"initpart.cut", "count"},
	{"kwayrefine.s", "s"},
	{"kwayrefine.finest_s", "s"},
	{"kwayrefine.moves", "count"},
	{"kwayrefine.boundary_frac", "ratio"},
	{"serial.project_s", "s"},
	{"serial.restarts", "count"},
	{"mem.finest_csr_mb", "MB"},
	{"mem.hier_mb", "MB"},
	{"mem.heap_live_mb.coarsen", "MB"},
	{"mem.heap_live_mb.refine", "MB"},
	{"gc.alloc_mb", "MB"},
	{"gc.cpu_frac", "ratio"},
	{"pgraph.s", "s"},
	{"pcoarsen.s", "s"},
	{"pinit.s", "s"},
	{"prefine.s", "s"},
	{"prefine.moves", "count"},
	{"mpi.calls", "count"},
	{"mpi.mb", "MB"},
	{"mpi.simwait_s", "s"},
	{"mpi.sim_s", "s"},
	{"service.decode_ms", "ms"},
	{"graph.parse_ms", "ms"},
	{"service.encode_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.hit_frac", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.overhead_s", "s"},
}

// sample holds the per-layer figures of one traced call.
type sample map[string]float64

// samples collects the traced calls of a run.
type samples []sample

// addPerLayer reports, for every per-layer metric, the median over the
// traced calls that measured it.
func (ss samples) addPerLayer(res *result) {
	for _, m := range perLayer {
		var xs []float64
		for _, s := range ss {
			if v, ok := s[m.name]; ok {
				xs = append(xs, v)
			}
		}
		res.add(m.name, median(xs), m.unit)
	}
}

// shareNote states where a traced call's time went, as shares of the
// traced wall time, largest first.
func (ss samples) shareNote(res *result) {
	layers := []string{"coarsen.s", "initpart.s", "kwayrefine.s", "serial.project_s",
		"pgraph.s", "pcoarsen.s", "pinit.s", "prefine.s",
		"service.decode_ms", "graph.parse_ms", "service.encode_ms"}
	var wall float64
	shares := map[string]float64{}
	for _, s := range ss {
		wall += s["trace.wall_s"]
		for _, l := range layers {
			v := s[l]
			if strings.HasSuffix(l, "_ms") {
				v /= 1000
			}
			shares[l] += v
		}
	}
	if wall == 0 {
		return
	}
	sort.SliceStable(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	var b strings.Builder
	for _, l := range layers {
		if shares[l] > 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", l, 100*shares[l]/wall)
		}
	}
	res.note("shares of traced wall time:%s", b.String())
}

// runtimeStats is a read of the Go runtime's counters between layer calls.
type runtimeStats struct {
	liveMB, allocMB, gcCPU, totalCPU, gcCycles float64
}

var runtimeNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeStats {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeStats{liveMB: v[0] / mb, allocMB: v[1] / mb, gcCPU: v[2], totalCPU: v[3], gcCycles: v[4]}
}

// addGC records the allocation and GC CPU share between two reads.
func (s sample) addGC(before, after runtimeStats) {
	s["gc.alloc_mb"] = after.allocMB - before.allocMB
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		s["gc.cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
}

const mb = 1 << 20
