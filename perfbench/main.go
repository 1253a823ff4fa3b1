// Command perfbench is the partitioner's benchmark: one process that
// generates a workload's inputs from a seed, runs the workload for a fixed
// time, checks every output it timed, and prints the metrics named in the
// repository's BENCHMARK.json. With -trace 0 it prints the end-to-end
// metrics of an untraced run; with -trace 1 it drives the layers one call
// at a time under spans recorded here, around each layer's entry point,
// and prints the per-layer metrics. See README.md in this directory.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload mesh-serial --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// gomaxprocs is the processor count every run uses, so runs on hosts with
// more cores stay comparable with the 2-CPU reference host.
const gomaxprocs = 2

// ncon is the number of balance constraints of every workload (m = 3, as in
// the paper's Type 1 experiments).
const ncon = 3

// A run sets up its inputs at least minSetupReps times and until
// minSetupSeconds have been spent on set-up (at most maxSetupReps times);
// setup_s is the median. One set-up repetition's time moves by 10-30%
// from one repetition to the next on a shared host, so the median is taken
// over several seconds of them.
const (
	minSetupReps    = 5
	maxSetupReps    = 40
	minSetupSeconds = 4
)

type kind int

const (
	kindSerial kind = iota
	kindParallel
	kindDaemon
)

// workload is one entry of the workload table in README.md. Every input
// is a gen mesh with the paper's Type 1 weights at m = 3.
type workload struct {
	name string
	kind kind
	// graph names the input mesh; tinyGraph is the stand-in the self-test
	// uses.
	graph, tinyGraph string
	k, p             int
	workers          int // CoarsenWorkers of the serial pipeline
	// seeds is the length of the run's fixed seed list; every seed on it is
	// run at least once however short the run.
	seeds int
}

var workloads = []workload{
	{name: "mesh-serial", kind: kindSerial, graph: "mrng2", tinyGraph: "mrng1t", k: 32, workers: 2, seeds: 8},
	{name: "mesh-parallel", kind: kindParallel, graph: "mrng3s", tinyGraph: "mrng1t", k: 32, p: 2, seeds: 8},
	{name: "daemon-hit", kind: kindDaemon, graph: "mrng3t", tinyGraph: "mrng1t", k: 16, seeds: 8},
}

// graphName names the run's input graph.
func (w workload) graphName(tiny bool) string {
	if tiny {
		return w.tinyGraph
	}
	return w.graph
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildGraph generates a workload input: the named mesh built from
// graphSeed with Type 1 weights of weightSeed overlaid.
func buildGraph(name string, graphSeed, weightSeed uint64) (*graph.Graph, error) {
	spec, ok := gen.MeshByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown mesh %q", name)
	}
	return gen.Type1(spec.Build(graphSeed), ncon, weightSeed), nil
}

// partSeed is the i-th partitioning seed of a run with the given workload
// seed.
func partSeed(seed uint64, i int) uint64 { return seed*1_000_000 + uint64(i) + 1 }

// partSeeds is the run's fixed list of partitioning seeds.
func partSeeds(seed uint64, n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = partSeed(seed, i)
	}
	return s
}

// options are the knobs of one run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool // self-test inputs
}

// result is what one run reports.
type result struct {
	attempted, failed int
	metrics           []metric
	// notes are printed above the result line: input sizes, per-level
	// figures, and the figures that are not in the result line.
	notes []string
	// fidelityFailed makes the process exit non-zero after printing its
	// result: a traced run that does not reproduce the untraced labels
	// measures some other computation.
	fidelityFailed bool
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation and says why on standard error.
func (r *result) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// run executes one workload run.
func run(w workload, o options) (*result, error) {
	switch w.kind {
	case kindSerial, kindParallel:
		return runLibrary(w, o)
	default:
		return runDaemon(w, o)
	}
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 18, "measuring time of the run")
	traceFlag := flag.Int("trace", 0, "1 = traced layer-driving run printing the per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload one of %s, --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println("meta " + metadata(w, o))
	for _, n := range res.notes {
		fmt.Println(n)
	}
	line, err := resultLine(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("metric %-28s %.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Println(line)
	if res.fidelityFailed {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// resultLine renders the last line of standard output.
func resultLine(r *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
	return string(b), err
}

// metadata describes the host and build a run's numbers belong to.
func metadata(w workload, o options) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"workload":   w.name,
		"seed":       o.seed,
		"trace":      o.trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    w.workers,
		"p":          w.p,
		"k":          w.k,
		"m":          ncon,
		"go":         runtime.Version(),
		"commit":     commit,
		"caches":     cacheSizes(),
	})
	return string(b)
}

// cacheSizes reads the CPU cache sizes ("L2": "2048K", ...) from sysfs, so
// a run's working set can be read against them.
func cacheSizes() map[string]string {
	out := map[string]string{}
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		level, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err1 != nil || err2 != nil || err3 != nil {
			break
		}
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		out["L"+strings.TrimSpace(string(level))] = strings.TrimSpace(string(size))
	}
	return out
}

// inputNote describes one input graph: its size and its CSR bytes.
func inputNote(g *graph.Graph, name string) string {
	return fmt.Sprintf("input %s n=%d nnz=%d finest_csr_bytes=%d", name, g.NumVertices(), len(g.Adjncy), csrBytes(g))
}

// csrBytes is the size of a graph's CSR arrays.
func csrBytes(g *graph.Graph) int64 {
	return 4 * int64(len(g.Xadj)+len(g.Adjncy)+len(g.Adjwgt)+len(g.Vwgt))
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB returns the process's VmHWM in MiB, 0 where /proc is missing.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// setup repeats build as the set-up constants say and returns the last
// result and the median set-up seconds, and notes every repetition's
// seconds in res. release, when non-nil, tears down each earlier
// repetition's result.
func setup[T any](res *result, build func() (T, error), release func(T)) (T, float64, error) {
	var v T
	var times []float64
	for total := 0.0; len(times) < maxSetupReps && (len(times) < minSetupReps || total < minSetupSeconds); {
		if len(times) > 0 && release != nil {
			release(v)
		}
		var zero T
		v = zero // let the previous repetition's inputs be collected
		runtime.GC()
		t := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, 0, err
		}
		times = append(times, since(t))
		total += times[len(times)-1]
	}
	res.note("setup_reps_s=%.4f", times)
	return v, median(times), nil
}
