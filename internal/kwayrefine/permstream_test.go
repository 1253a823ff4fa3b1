package kwayrefine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/initpart"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// TestPermStreamRNGContract pins the permutation stream's contract: after
// Refine or Balance the caller's RNG continues exactly where the full-scan
// oracle, which draws every order with rand.Perm on the calling goroutine,
// leaves it, and no producer goroutine outlives the call. The cases cover
// every exit: the pass budget running out, a pass without moves, Stop
// firing before the first pass and partway through, and Balance.
func TestPermStreamRNGContract(t *testing.T) {
	base := gen.MRNGLike(16, 16, 12, 5)
	g := gen.Type1(base, 3, 17)
	const k = 8
	balanced := initpart.RecursiveBisect(g, k, rng.New(2), initpart.Options{Tol: 0.05})
	skewed := append([]int32(nil), balanced...)
	r := rng.New(9)
	for v := range skewed {
		if skewed[v] != 0 && r.Intn(7) == 0 {
			skewed[v] = 0
		}
	}
	if imb := metrics.MaxImbalance(g, skewed, k); imb < 1.10 {
		t.Fatalf("injection too weak: %.3f", imb)
	}

	cases := []struct {
		name      string
		part      []int32
		tol       float64
		passes    int
		stopAt    int // Stop returns true from this poll on (0 = never)
		balance   bool
		wantPolls func(polls, passes int) bool
	}{
		{"pass budget of 1", balanced, 0.05, 1, 0, false, func(p, n int) bool { return p == 1 }},
		{"all passes", skewed, 0.05, 3, 0, false, func(p, n int) bool { return p == n }},
		{"no moves before the budget", balanced, 0.05, 30, 0, false, func(p, n int) bool { return p < n }},
		{"stop before the first pass", balanced, 0.05, 8, 1, false, func(p, n int) bool { return p == 1 }},
		{"stop partway", skewed, 0.05, 8, 3, false, func(p, n int) bool { return p == 3 }},
		{"balance", skewed, 0.05, 12, 0, true, func(p, n int) bool { return p >= 1 }},
		// At tol 0.02 one balance pass does not restore balance, so Balance
		// polls Stop a second time.
		{"balance stopped partway", skewed, 0.02, 12, 2, true, func(p, n int) bool { return p == 2 }},
	}
	goroutines := runtime.NumGoroutine()
	for _, c := range cases {
		for _, seed := range []uint64{3, 101} {
			tag := fmt.Sprintf("%s seed=%d", c.name, seed)
			var polls int
			opt := Options{Tol: c.tol, Passes: c.passes, Stop: func() bool {
				polls++
				return c.stopAt > 0 && polls >= c.stopAt
			}}
			partA := append([]int32(nil), c.part...)
			partB := append([]int32(nil), c.part...)
			randA, randB := rng.New(seed), rng.New(seed)
			refA := NewRefiner(k, g.Ncon, opt)
			refB := fullScan{NewRefiner(k, g.Ncon, opt)}
			var mvA, mvB int
			if c.balance {
				mvA = refA.Balance(g, partA, randA)
				pollsA := polls
				polls = 0
				mvB = refB.Balance(g, partB, randB)
				polls = pollsA
			} else {
				mvA = refA.Refine(g, partA, randA)
				pollsA := polls
				polls = 0
				mvB = refB.Refine(g, partB, randB)
				polls = pollsA
			}
			if !c.wantPolls(polls, c.passes) {
				t.Errorf("%s: Stop polled %d times with a budget of %d passes: the case does not exit the way it names", tag, polls, c.passes)
			}
			if mvA != mvB {
				t.Errorf("%s: %d moves, oracle %d", tag, mvA, mvB)
			}
			if a, b := randA.Uint64(), randB.Uint64(); a != b {
				t.Errorf("%s: next draw after the call is %#x, oracle's %#x", tag, a, b)
			}
			waitGoroutines(t, tag, goroutines)
		}
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want. finish has joined the producer when Refine returns, but the
// runtime counts a goroutine until it has fully exited, so allow it a
// moment to do so.
func waitGoroutines(t *testing.T, tag string, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the call, %d before", tag, runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}
