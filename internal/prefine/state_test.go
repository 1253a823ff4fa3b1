package prefine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/pgraph"
	"repro/internal/rng"
)

// wakeGraph is a 6-vertex, 2-part problem split over two ranks (rank 0
// owns 0..2, rank 1 owns 3..5) around the cross-rank edge x=2 — y=3:
//
//	0 —1— x —5— y —10— 4 —10— 5
//	      x —4— 1 —10— 4
//
// Under wakeLabels (A = 0, B = 1), x (rank 0) is an idle boundary vertex
// (internal degree 6, weight 4 toward B), while y (rank 1) gains 5 by
// moving to B. Once y has moved, x's gain toward B is 9 - 1 = 8.
func wakeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 2, 4)
	b.AddEdge(2, 3, 5)
	b.AddEdge(3, 4, 10)
	b.AddEdge(1, 4, 10)
	b.AddEdge(4, 5, 10)
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var wakeLabels = []int32{0, 1, 0, 0, 1, 1}

const (
	wakeX = 2 // owned by rank 0, local index 2
	wakeY = 3 // owned by rank 1, local index 0
)

// wakeWorld runs body on both ranks with a fresh refiner over wakeGraph.
// DirectionFilter makes the down sweep unable to move anything toward B,
// so it only classifies; the 0.7 tolerance leaves room in B for both
// moves (limit 5 of total 6). It returns the refiners for inspection
// after the world has finished.
func wakeWorld(t *testing.T, body func(c *mpi.Comm, r *Refiner, rand *rng.RNG)) []*Refiner {
	t.Helper()
	g := wakeGraph(t)
	refs := make([]*Refiner, 2)
	mpi.Run(2, mpi.Zero(), func(c *mpi.Comm) {
		dg := pgraph.Distribute(c, g)
		part := append([]int32(nil), wakeLabels[dg.First():int(dg.First())+dg.NLocal()]...)
		r := NewRefiner(dg, part, 2, Options{Tol: 0.7, DirectionFilter: true})
		refs[c.Rank()] = r
		body(c, r, rng.New(3).Derive(uint64(c.Rank())))
	})
	return refs
}

// TestIdleVertexWakesOnGhostMove: x is idle on rank 0 until its rank-1
// ghost neighbour y moves; the ghost exchange that carries y's new label
// returns x to evaluation, and x then moves.
func TestIdleVertexWakesOnGhostMove(t *testing.T) {
	var stDown, stUp uint8
	var partDown, partUp, partAgain int32
	refs := wakeWorld(t, func(c *mpi.Comm, r *Refiner, rand *rng.RNG) {
		r.phase(rand, phaseDown)
		if c.Rank() == 0 {
			stDown, partDown = r.st[wakeX], r.part[wakeX]
		}
		r.phase(rand, phaseUp) // y moves to B; x is skipped as idle
		if c.Rank() == 0 {
			stUp, partUp = r.st[wakeX], r.part[wakeX]
		}
		r.phase(rand, phaseUp) // x, woken, moves to B
		if c.Rank() == 0 {
			partAgain = r.part[wakeX]
		}
	})
	if stDown != stIdle || partDown != 0 {
		t.Fatalf("after the down sweep: x state %d label %d, want idle (%d) in A", stDown, partDown, stIdle)
	}
	if got := refs[1].part[wakeY-3]; got != 1 {
		t.Fatalf("y label %d after the up sweep, want 1", got)
	}
	if stUp != stEvaluate || partUp != 0 {
		t.Fatalf("after y moved: x state %d label %d, want evaluate (%d) in A", stUp, partUp, stEvaluate)
	}
	if partAgain != 1 {
		t.Fatalf("woken x did not move: label %d, want 1", partAgain)
	}
	if refs[0].idleSkipped == 0 {
		t.Error("rank 0 skipped no idle vertex")
	}
	for rank, r := range refs {
		if err := r.verifyState(); err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestRollbackClearsState: after sweeps have classified vertices against
// moved labels, restoring the pass-start snapshot must leave no interior or
// idle flag behind; a stale one (vertex 4 is interior once y and x sit in
// B, but not after they return to A) would wrongly skip it.
func TestRollbackClearsState(t *testing.T) {
	var flagged [2]int
	refs := wakeWorld(t, func(c *mpi.Comm, r *Refiner, rand *rng.RNG) {
		snapPart := append([]int32(nil), r.part...)
		snapPwgts := append([]int64(nil), r.pwgts...)
		r.phase(rand, phaseDown)
		r.phase(rand, phaseUp)
		r.phase(rand, phaseUp)
		for _, st := range r.st {
			if st != stEvaluate {
				flagged[c.Rank()]++
			}
		}
		r.rollback(snapPart, snapPwgts)
	})
	if flagged[0] == 0 || flagged[1] == 0 {
		t.Fatalf("sweeps flagged %v vertices per rank before the rollback, want some on each", flagged)
	}
	for rank, r := range refs {
		first := int(r.dg.First())
		for v, st := range r.st {
			if st != stEvaluate {
				t.Errorf("rank %d: vertex %d state %d after rollback, want evaluate", rank, first+v, st)
			}
			if r.part[v] != wakeLabels[first+v] {
				t.Errorf("rank %d: vertex %d label %d after rollback, want %d", rank, first+v, r.part[v], wakeLabels[first+v])
			}
		}
		for s, gid := range r.dg.GhostGlobal {
			if r.ghostPart[s] != wakeLabels[gid] {
				t.Errorf("rank %d: ghost %d label %d after rollback, want %d", rank, gid, r.ghostPart[s], wakeLabels[gid])
			}
		}
		if err := r.verifyState(); err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestVerifyStateCatchesStaleFlags: the mcdebug check rejects an interior
// flag on a boundary vertex and an idle flag on a vertex with a positive
// gain, and it does not allocate on a consistent state.
func TestVerifyStateCatchesStaleFlags(t *testing.T) {
	refs := wakeWorld(t, func(c *mpi.Comm, r *Refiner, rand *rng.RNG) {
		r.phase(rand, phaseDown)
	})
	r0, r1 := refs[0], refs[1]
	if err := r0.verifyState(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = r0.verifyState() }); allocs != 0 {
		t.Errorf("verifyState allocates %.1f times per call, want 0", allocs)
	}
	r0.st[wakeX] = stInterior
	if r0.verifyState() == nil {
		t.Error("interior flag on boundary vertex x not caught")
	}
	r0.st[wakeX] = stIdle
	r1.st[wakeY-3] = stIdle // y gains 5 toward B
	if r1.verifyState() == nil {
		t.Error("idle flag on vertex y with a positive gain not caught")
	}
}
