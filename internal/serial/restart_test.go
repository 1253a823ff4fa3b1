package serial

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/metrics"
)

// TestRestartAboveTolerance pins the restart rule on seeds whose first
// attempt ends between 1+tol and 1+2·tol (1.081, 1.052 and 1.080 on this
// mesh): a result above the tolerance must not come back as a success
// without a restart, and here one restart reaches the tolerance.
func TestRestartAboveTolerance(t *testing.T) {
	for _, c := range []struct{ meshSeed, seed uint64 }{
		{103, 103000108},
		{206, 206000058},
		{210, 210000039},
	} {
		g := gen.Type1(gen.MRNGLike(40, 40, 40, c.meshSeed*7919+7), 3, c.meshSeed+100)
		part, stats, err := Partition(g, 16, Options{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		imb := metrics.MaxImbalance(g, part, 16)
		t.Logf("seed %d: imbalance %.4f, cut %d, restarts %d", c.seed, imb, stats.EdgeCut, stats.Restarts)
		if stats.Restarts == 0 {
			t.Errorf("seed %d: no restart", c.seed)
		}
		if imb > 1.05 {
			t.Errorf("seed %d: imbalance %.4f returned as a success, want <= 1.05", c.seed, imb)
		}
		if imb != stats.Imbalance || metrics.EdgeCut(g, part) != stats.EdgeCut {
			t.Errorf("seed %d: reported imbalance %.4f and cut %d, recomputed %.4f and %d",
				c.seed, stats.Imbalance, stats.EdgeCut, imb, metrics.EdgeCut(g, part))
		}
	}
}
