package rng

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestDeriveIndependentStreams(t *testing.T) {
	parent := New(7)
	s0 := parent.Derive(0)
	s1 := parent.Derive(1)
	s0again := New(7).Derive(0)
	same01 := 0
	for i := 0; i < 100; i++ {
		x0, x1 := s0.Uint64(), s1.Uint64()
		if x0 == x1 {
			same01++
		}
		if x0 != s0again.Uint64() {
			t.Fatal("Derive is not deterministic")
		}
	}
	if same01 > 2 {
		t.Errorf("derived streams 0 and 1 coincide %d/100 times", same01)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw)%100 + 1
		x := r.Intn(n)
		return x >= 0 && x < n
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(9)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Errorf("bucket %d: %d draws, want ~%d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / 10000; mean < 0.47 || mean > 0.53 {
		t.Errorf("mean = %f, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 17, 1000} {
		p := make([]int32, n)
		r.Perm(p)
		seen := make([]bool, n)
		for _, x := range p {
			if x < 0 || int(x) >= n || seen[x] {
				t.Fatalf("n=%d: not a permutation: %v", n, p[:min(n, 20)])
			}
			seen[x] = true
		}
	}
}

func TestPermIsShuffled(t *testing.T) {
	r := New(13)
	p := make([]int32, 1000)
	r.Perm(p)
	fixed := 0
	for i, x := range p {
		if int32(i) == x {
			fixed++
		}
	}
	// Expected number of fixed points of a random permutation is 1.
	if fixed > 10 {
		t.Errorf("%d fixed points; permutation looks unshuffled", fixed)
	}
}

// TestPermUntilMatchesPerm: an uninterrupted PermUntil draws exactly what
// Perm draws, and a raised stop flag abandons it before any work.
func TestPermUntilMatchesPerm(t *testing.T) {
	var stop atomic.Bool
	for _, n := range []int{0, 1, 17, 3*permPoll + 5} {
		a, b := New(19), New(19)
		pa, pb := make([]int32, n), make([]int32, n)
		a.Perm(pa)
		if !b.PermUntil(pb, &stop) {
			t.Fatalf("n=%d: PermUntil gave up with stop unset", n)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("n=%d: p[%d] = %d, Perm gave %d", n, i, pb[i], pa[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("n=%d: streams diverge after the permutation", n)
		}
	}
	stop.Store(true)
	r := New(19)
	before := *r
	if r.PermUntil(make([]int32, permPoll), &stop) {
		t.Fatal("PermUntil completed with stop set")
	}
	if *r != before {
		t.Fatal("PermUntil drew from the stream with stop set on entry")
	}
}

func TestSeedResets(t *testing.T) {
	r := New(21)
	first := r.Uint64()
	r.Uint64()
	r.Seed(21)
	if got := r.Uint64(); got != first {
		t.Errorf("Seed did not reset the stream: %d != %d", got, first)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
