package partition_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	partition "repro"
	"repro/internal/trace"
)

// traceGraph must be large enough (> the coarsening threshold) to produce
// a real multilevel hierarchy; determinismGraph (12³) is below it.
func traceGraph() *partition.Graph {
	g := partition.Mesh3D(16, 16, 16, 5)
	return partition.Type1Workload(g, 2, 42)
}

// TestTracedMatchesUntraced is the observability overhead contract
// (DESIGN.md): tracing is observation-only, so a traced run must produce
// byte-identical labels — and, in parallel, an identical simulated clock —
// to the untraced run it observes.
func TestTracedMatchesUntraced(t *testing.T) {
	g := traceGraph()
	const k, p = 8, 4
	ctx := context.Background()

	sOpt := partition.SerialOptions{Seed: 7}
	plain, ps, err := partition.SerialContext(ctx, g, k, sOpt)
	if err != nil {
		t.Fatal(err)
	}
	traced, ts, err := partition.SerialTraced(ctx, g, k, sOpt, partition.NewTracer("t"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(partBytes(t, plain), partBytes(t, traced)) {
		t.Error("serial: traced run changed the partition vector")
	}
	if ps.EdgeCut != ts.EdgeCut || ps.Levels != ts.Levels {
		t.Errorf("serial: traced stats differ: cut %d vs %d, levels %d vs %d",
			ps.EdgeCut, ts.EdgeCut, ps.Levels, ts.Levels)
	}

	pOpt := partition.ParallelOptions{Seed: 7}
	pplain, pps, err := partition.ParallelContext(ctx, g, k, p, pOpt)
	if err != nil {
		t.Fatal(err)
	}
	ptraced, pts, err := partition.ParallelTraced(ctx, g, k, p, pOpt, partition.NewTracer("t"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(partBytes(t, pplain), partBytes(t, ptraced)) {
		t.Error("parallel: traced run changed the partition vector")
	}
	if pps.EdgeCut != pts.EdgeCut {
		t.Errorf("parallel: traced cut %d, untraced %d", pts.EdgeCut, pps.EdgeCut)
	}
	if pps.SimTime != pts.SimTime {
		t.Errorf("parallel: traced SimTime %v, untraced %v — tracing perturbed the simulated clock",
			pts.SimTime, pps.SimTime)
	}
}

// TestSerialTraceShape checks the single-track serial trace: valid
// trace-event JSON with the phase spans and one span per hierarchy level.
func TestSerialTraceShape(t *testing.T) {
	g := traceGraph()
	tr := partition.NewTracer("test-serial")
	_, stats, err := partition.SerialTraced(context.Background(), g, 8, partition.SerialOptions{Seed: 3}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Levels < 2 {
		t.Fatalf("graph too easy: %d levels, need a real hierarchy", stats.Levels)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := trace.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("serial trace invalid: %v", err)
	}
	if got := sum.SpanTracks(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("SpanTracks = %v, want [0]", got)
	}
	spans := sum.Spans[0]
	for _, name := range []string{"coarsen", "init", "refine"} {
		if spans[name] == 0 {
			t.Errorf("no %q span: %v", name, spans)
		}
	}
	// Restarts may add whole extra pipelines, hence >=. Levels counts the
	// hierarchy rungs; there are Levels-1 contractions and Levels refined
	// levels.
	if spans["coarsen.level"] < stats.Levels-1 {
		t.Errorf("%d coarsen.level spans for %d levels", spans["coarsen.level"], stats.Levels)
	}
	if spans["refine.level"] < stats.Levels {
		t.Errorf("%d refine.level spans for %d levels", spans["refine.level"], stats.Levels)
	}
	if spans["refine.pass"] < spans["refine.level"] {
		t.Errorf("%d refine.pass spans for %d refine.level spans", spans["refine.pass"], spans["refine.level"])
	}
	// Every refine.pass span carries the boundary refiner's per-pass
	// counters, and across the run some boundary vertices are skipped as
	// idle: the greedy passes after the first find most of the boundary
	// with only negative gains.
	for _, key := range []string{"boundary_n", "gain_cache_updates", "evaluated", "idle_skipped"} {
		if got := sum.SpanAttrs[0]["refine.pass"][key]; got != spans["refine.pass"] {
			t.Errorf("%d of %d refine.pass spans carry %q", got, spans["refine.pass"], key)
		}
	}
	var events struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	var evaluated, idle float64
	for _, e := range events.TraceEvents {
		if e.Name == "refine.pass" {
			ev, _ := e.Args["evaluated"].(float64)
			is, _ := e.Args["idle_skipped"].(float64)
			evaluated += ev
			idle += is
		}
	}
	if evaluated == 0 || idle == 0 {
		t.Errorf("refine.pass spans sum to %v evaluated and %v idle-skipped boundary visits, want both > 0",
			evaluated, idle)
	}
	ph := tr.PhaseSeconds()
	for _, name := range []string{"coarsen", "init", "refine"} {
		if _, ok := ph[name]; !ok {
			t.Errorf("PhaseSeconds missing %q: %v", name, ph)
		}
	}
}

// TestParallelTraceShape is the ISSUE acceptance criterion: a traced p=4
// run emits valid trace-event JSON with a span for every coarsening level
// and refinement level on every rank, plus per-collective comm counters.
func TestParallelTraceShape(t *testing.T) {
	g := traceGraph()
	const k, p = 8, 4
	tr := partition.NewTracer("test-parallel")
	_, stats, err := partition.ParallelTraced(context.Background(), g, k, p, partition.ParallelOptions{Seed: 3}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Levels < 2 {
		t.Fatalf("graph too easy: %d levels, need a real hierarchy", stats.Levels)
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := trace.Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("parallel trace invalid: %v", err)
	}
	tracks := sum.SpanTracks()
	if len(tracks) != p {
		t.Fatalf("SpanTracks = %v, want %d rank tracks", tracks, p)
	}
	for _, tid := range tracks {
		spans := sum.Spans[tid]
		for _, name := range []string{"distribute", "coarsen", "init", "refine"} {
			if spans[name] == 0 {
				t.Errorf("rank %d: no %q span: %v", tid, name, spans)
			}
		}
		if spans["coarsen.level"] < stats.Levels-1 {
			t.Errorf("rank %d: %d coarsen.level spans for %d levels", tid, spans["coarsen.level"], stats.Levels)
		}
		if spans["refine.level"] < stats.Levels {
			t.Errorf("rank %d: %d refine.level spans for %d levels", tid, spans["refine.level"], stats.Levels)
		}
		if spans["refine.pass"] == 0 {
			t.Errorf("rank %d: no refine.pass spans", tid)
		}
		found := false
		for name := range sum.Counters[tid] {
			if strings.HasPrefix(name, "mpi.") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("rank %d: no mpi.* comm counters: %v", tid, sum.Counters[tid])
		}
	}
}

// TestTracedAbortIsBalanced: a cancelled traced run must still export a
// valid (balanced) trace — Export synthesizes closes for open spans.
func TestTracedAbortIsBalanced(t *testing.T) {
	g := traceGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts: aborts at the first check
	tr := partition.NewTracer("aborted")
	_, _, err := partition.ParallelTraced(ctx, g, 8, 4, partition.ParallelOptions{Seed: 3}, tr)
	if err == nil {
		t.Fatal("cancelled run did not error")
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	// An immediately-cancelled run may record nothing at all; only a
	// non-empty trace must validate.
	if sum, err := trace.Validate(buf.Bytes()); err != nil &&
		!strings.Contains(err.Error(), "empty") {
		t.Fatalf("aborted trace invalid: %v (sum=%v)", err, sum)
	}
}
