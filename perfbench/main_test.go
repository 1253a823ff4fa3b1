package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	partition "repro"
	"repro/internal/gen"
)

// benchmarkSpec is the part of ../BENCHMARK.json the result line must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTinyWorkloads runs every workload on tiny inputs, untraced and
// traced, and checks that each run is correct and reports exactly the
// metrics BENCHMARK.json names, with their units.
func TestTinyWorkloads(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", names, want)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w, options{seed: 3, seconds: 0.2, trace: traced, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 || res.fidelityFailed {
				t.Errorf("%s trace=%v: %d of %d failed (fidelity failed: %v)", w.name, traced, res.failed, res.attempted, res.fidelityFailed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.metrics), len(want))
			}
			for i, m := range res.metrics {
				if m.name != want[i].Name || m.unit != want[i].Unit {
					t.Errorf("%s trace=%v: metric %d is %s [%s], BENCHMARK.json says %s [%s]",
						w.name, traced, i, m.name, m.unit, want[i].Name, want[i].Unit)
				}
				if !traced && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, m.value)
				}
			}
		}
	}
}

// TestCheckerRejects corrupts one good partition: a label out of range, a
// mis-reported cut, a mis-reported imbalance, and other labels for a seed
// already seen.
func TestCheckerRejects(t *testing.T) {
	g, err := buildGraph("mrng1t", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	labels, st, err := partition.Serial(g, k, partition.SerialOptions{Seed: 1, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPartition(g, k, labels, st.EdgeCut, st.Imbalance); err != nil {
		t.Fatalf("good partition rejected: %v", err)
	}
	bad := slices.Clone(labels)
	bad[17] = k
	if checkPartition(g, k, bad, st.EdgeCut, st.Imbalance) == nil {
		t.Error("label outside [0,k) accepted")
	}
	if checkPartition(g, k, labels, st.EdgeCut+1, st.Imbalance) == nil {
		t.Error("mis-reported cut accepted")
	}
	if checkPartition(g, k, labels, st.EdgeCut, st.Imbalance+1e-9) == nil {
		t.Error("mis-reported imbalance accepted")
	}
	sc := newSeedCheck()
	if err := sc.add(1, labels, st.EdgeCut); err != nil {
		t.Fatal(err)
	}
	if sc.add(1, bad, st.EdgeCut) == nil {
		t.Error("a second call of one seed with other labels accepted")
	}
}

// TestSerialReplayPin ties the layer-driving serial run to the historical
// BENCH_FULL pin: mrng1 (unit weights, m=1), k=8, seed 1 has cut 28128.
func TestSerialReplayPin(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale mrng1 run")
	}
	spec, _ := gen.MeshByName("mrng1")
	g := spec.Build(1*7919 + 7)
	w := workload{name: "mrng1-pin", kind: kindSerial, k: 8}
	got := driveSerial(g, w, 1, sample{}, &result{}, false)
	if got.cut != 28128 {
		t.Errorf("layer-driving serial run: cut %d, BENCH_FULL pins 28128", got.cut)
	}
	want, _, err := partition.Serial(g, 8, partition.SerialOptions{Seed: 1, Tol: tol})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.labels, want) {
		t.Error("layer-driving serial run's labels differ from partition.Serial's")
	}
}
