package experiments

import (
	"testing"

	"repro/internal/trace"
)

func TestModelAnchorConsistency(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	curve := ReuseCurve(tr)
	opts := DefaultOptions()
	ch := trace.Characterize(tr)
	for _, n := range []int{1, 8, 16} {
		p, hlc, q := modelAt(ch, n, opts, curve.HitRate)
		viaCurve := p.Bound(hlc, q).RequestsPerSec
		// Recompute with direct LRU passes.
		p, hlc, q = modelAt(ch, n, opts, func(c int64) float64 { return lruHitRate(tr, c) })
		direct := p.Bound(hlc, q).RequestsPerSec
		if viaCurve != direct {
			t.Errorf("n=%d: curve %v != direct %v", n, viaCurve, direct)
		}
		t.Logf("n=%d model=%v", n, viaCurve)
	}
}
