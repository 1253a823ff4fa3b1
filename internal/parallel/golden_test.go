package parallel

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prefine"
	"repro/internal/repart"
	"repro/internal/rng"
	"repro/internal/serial"
)

// goldenCase is one pinned parallel run. The hash covers the labels, the
// edge-cut and the bits of the imbalance, so a change in any partitioning
// decision shows up as a different value; sim holds the bits of the
// simulated time, which any change to a Work or collective charge of the
// cost model moves.
type goldenCase struct {
	typ, m, p int
	scheme    prefine.Scheme
	hash, sim uint64
}

// goldenCases covers Type 1/2 × m ∈ {1,3,5} × p ∈ {2,3,4} under the
// reservation scheme (m ≥ 4 takes its 3-round sweeps), plus every other
// scheme on both workload types.
var goldenCases = []goldenCase{
	{1, 1, 2, prefine.Reservation, 0x78c582568c3d595b, 0x3f821c615a6efe89},
	{1, 1, 3, prefine.Reservation, 0x3d2f97e7ebb6ded4, 0x3f89601b9b27684c},
	{1, 1, 4, prefine.Reservation, 0x172d2a68b0c922f4, 0x3f846c1a6f11e798},
	{1, 3, 2, prefine.Reservation, 0x87b2cf3e84ad9db4, 0x3f89922b8521ba0b},
	{1, 3, 3, prefine.Reservation, 0xdb3958d663fbac0, 0x3f90542fe0a0f2a9},
	{1, 3, 4, prefine.Reservation, 0xc25850c8b9505bdc, 0x3f89d62f4386dfbb},
	{1, 5, 2, prefine.Reservation, 0x72dde3bc2078c5b, 0x3f91a2a1b711a800},
	{1, 5, 3, prefine.Reservation, 0xb75760b6fa639e63, 0x3f9d172d3fbf8df9},
	{1, 5, 4, prefine.Reservation, 0x3c5339e7c18d9138, 0x3f952e780f3a9881},
	{2, 1, 2, prefine.Reservation, 0x23bdfb3c3f42af83, 0x3f808003f1513b7f},
	{2, 1, 3, prefine.Reservation, 0x1e63723ae83bcd5c, 0x3f8684340899773b},
	{2, 1, 4, prefine.Reservation, 0xf75fca0e3df27696, 0x3f87de01dc00cfce},
	{2, 3, 2, prefine.Reservation, 0xfbce55aeb2d18885, 0x3f890763ed276fc4},
	{2, 3, 3, prefine.Reservation, 0xd5ddd7f0ceb25420, 0x3f8ed020daba21e5},
	{2, 3, 4, prefine.Reservation, 0x9df1ef7c1ba962f5, 0x3f8d77999b7053ec},
	{2, 5, 2, prefine.Reservation, 0x2c08ff2697e20ade, 0x3f92e72322348185},
	{2, 5, 3, prefine.Reservation, 0xd6a751b8ad8b65d4, 0x3f9d0f7e42e91861},
	{2, 5, 4, prefine.Reservation, 0x3ad38d76637272b1, 0x3f9749677b5a0099},
	{1, 3, 3, prefine.Slice, 0x86f103d0143e10cb, 0x3f89755659ae101b},
	{2, 3, 3, prefine.Slice, 0x69656cb80e90e114, 0x3f876182d6fe61b1},
	{1, 3, 3, prefine.SliceSmart, 0xce90b153b49d0cc0, 0x3f919fe1c51cf92a},
	{2, 5, 3, prefine.SliceSmart, 0x79ef34ee1a1cc661, 0x3f92fefa2cbd897c},
	{1, 3, 3, prefine.Free, 0xba7515611946283e, 0x3f994de4a3fed98b},
	{2, 3, 3, prefine.Free, 0x3a3f0d6c46cbe37f, 0x3f8893eefb44052d},
}

// goldenRepartition pins one parallel Repartition call (diffusion path).
var goldenRepartition = [2]uint64{0xc583dcaaabb59640, 0x3f5c3825fe6fc6b2}

func goldenGraph(typ, m int) *graph.Graph {
	base := gen.MRNGLike(12, 12, 12, 5)
	if typ == 1 {
		return gen.Type1(base, m, 42)
	}
	return gen.Type2(base, m, 42)
}

// goldenOptions coarsens well below the 2000-vertex default so the small
// graph still builds a multi-level hierarchy, and keeps the default T3E
// cost model so SimTime is pinned.
func goldenOptions(seed uint64, scheme prefine.Scheme) Options {
	return Options{Seed: seed, CoarsenTo: 120, Scheme: scheme}
}

func goldenHash(part []int32, cut int64, imbalance float64) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, part)
	binary.Write(h, binary.LittleEndian, cut)
	binary.Write(h, binary.LittleEndian, math.Float64bits(imbalance))
	return h.Sum64()
}

// checkGolden compares one run against its pinned values. The mcdebug
// build's invariant checks add collectives to every run, so the simulated
// time is pinned in release builds only.
func checkGolden(t *testing.T, part []int32, cut int64, imbalance, simTime float64, hash, sim uint64) {
	t.Helper()
	if got := goldenHash(part, cut, imbalance); got != hash {
		t.Errorf("hash = %#x, want %#x (cut %d, imbalance %v)", got, hash, cut, imbalance)
	}
	if got := math.Float64bits(simTime); !check.Enabled && got != sim {
		t.Errorf("simtime bits = %#x, want %#x (simtime %v)", got, sim, simTime)
	}
}

// TestParallelGolden pins the parallel partitioner's output across
// processes and commits: unlike TestParallelDeterministic, which compares
// two runs within one process, the expected hashes are committed values.
// A kernel rewrite that claims byte-identical output (labels, cut,
// imbalance and simulated time) must leave every hash unchanged.
func TestParallelGolden(t *testing.T) {
	const k = 8
	for i, gc := range goldenCases {
		name := fmt.Sprintf("type%d/m%d/p%d/%v", gc.typ, gc.m, gc.p, gc.scheme)
		t.Run(name, func(t *testing.T) {
			g := goldenGraph(gc.typ, gc.m)
			part, stats := run(t, g, k, gc.p, goldenOptions(uint64(100+i), gc.scheme))
			if stats.Levels < 3 {
				t.Fatalf("only %d levels: the case does not exercise the hierarchy", stats.Levels)
			}
			checkGolden(t, part, stats.EdgeCut, stats.Imbalance, stats.SimTime, gc.hash, gc.sim)
		})
	}
	t.Run("repartition", func(t *testing.T) {
		g0 := goldenGraph(1, 3)
		init, _, err := serial.Partition(g0, k, serial.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		// Drift: double the weights of a random ~8% of the vertices.
		r := rng.New(77)
		g := g0.Clone()
		g.Vwgt = append([]int32(nil), g0.Vwgt...)
		for v := 0; v < g.NumVertices(); v++ {
			if r.Intn(12) == 0 {
				for c := 0; c < g.Ncon; c++ {
					g.Vwgt[v*g.Ncon+c] *= 2
				}
			}
		}
		part, stats, err := Repartition(g, init, k, 3, goldenOptions(9, prefine.Reservation))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Method != repart.Diffusion {
			t.Errorf("method = %v, want diffusion", stats.Method)
		}
		checkGolden(t, part, stats.EdgeCut, stats.Imbalance, stats.SimTime, goldenRepartition[0], goldenRepartition[1])
	})
}
