package experiments

import (
	"fmt"
	"strings"

	"repro/internal/queuemodel"
)

// ModelSurfaces reproduces the modeling figures: Figure 3 (oblivious
// throughput), Figure 4 (conscious throughput), and Figure 5 (their ratio)
// over the default (hit rate, file size) grid.
func ModelSurfaces() (fig3, fig4, fig5 queuemodel.Surface) {
	p := queuemodel.DefaultParams()
	hits, sizes := queuemodel.DefaultGrid()
	return queuemodel.ObliviousSurface(p, hits, sizes),
		queuemodel.ConsciousSurface(p, hits, sizes),
		queuemodel.IncreaseSurface(p, hits, sizes)
}

// Figure6 reproduces the side view of the increase surface: the maximum
// throughput increase at each hit rate.
func Figure6(fig5 queuemodel.Surface) Figure {
	return Figure{
		ID:     "figure6",
		Title:  "throughput increase due to locality (side view)",
		XLabel: "hit_rate",
		X:      fig5.HitRates,
		Series: []Series{{Label: "increase", Values: fig5.SideView()}},
	}
}

// SurfaceSummary condenses a surface into the numbers the paper's prose
// quotes: the peak, its location, and a few named grid points.
func SurfaceSummary(s queuemodel.Surface) string {
	peak, hit, size := s.Max()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: peak %.1f at (Hlo=%.2f, S=%gKB)\n", s.Name, peak, hit, size)
	for _, pt := range [][2]float64{{0.5, 8}, {0.8, 8}, {0.9, 8}, {0.95, 4}, {1.0, 4}, {0.8, 64}} {
		fmt.Fprintf(&b, "  at (Hlo=%.2f, S=%gKB): %.1f\n", pt[0], pt[1], s.At(pt[0], pt[1]))
	}
	return b.String()
}

// MemorySweep reproduces the Section 3.2 memory study: peak and mean
// locality gain for per-node memories of 128, 256, and 512 MB.
func MemorySweep() Figure {
	hits, sizes := queuemodel.DefaultGrid()
	mems := []int64{128 << 20, 256 << 20, 512 << 20}
	fig := Figure{
		ID:     "model-memory",
		Title:  "locality gain vs per-node memory (section 3.2)",
		XLabel: "memory_mb",
	}
	var peaks, means []float64
	for _, m := range mems {
		p := queuemodel.DefaultParams()
		p.CacheBytes = m
		s := queuemodel.IncreaseSurface(p, hits, sizes)
		peak, _, _ := s.Max()
		var sum float64
		for _, row := range s.Values {
			for _, v := range row {
				sum += v
			}
		}
		fig.X = append(fig.X, float64(m>>20))
		peaks = append(peaks, peak)
		means = append(means, sum/float64(len(hits)*len(sizes)))
	}
	fig.Series = []Series{
		{Label: "peak gain", Values: peaks},
		{Label: "mean gain", Values: means},
	}
	return fig
}

// ReplicationSweep reproduces the Section 3.2 replication study: how the
// replication fraction R trades forwarding (Q) against total cache (Hlc),
// at a representative operating point (Hlo=0.7, S=8KB).
func ReplicationSweep() Figure {
	fig := Figure{
		ID:     "model-replication",
		Title:  "replication study at Hlo=0.7, S=8KB (section 3.2)",
		XLabel: "replication",
	}
	var thr, hlcs, qs []float64
	for _, r := range []float64{0, 0.05, 0.15, 0.30, 0.50, 1.0} {
		p := queuemodel.DefaultParams()
		p.AvgFileKB = 8
		p.Replication = r
		hlc, h := p.HitRates(0.7)
		q := p.ForwardFraction(h)
		fig.X = append(fig.X, r)
		thr = append(thr, p.Conscious(0.7).RequestsPerSec)
		hlcs = append(hlcs, hlc*100)
		qs = append(qs, q*100)
	}
	fig.Series = []Series{
		{Label: "throughput", Values: thr},
		{Label: "Hlc %", Values: hlcs},
		{Label: "forwarded %", Values: qs},
	}
	return fig
}
