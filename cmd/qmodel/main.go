// Command qmodel solves the analytic queuing model of Section 3 and emits
// the data behind Figures 3-6 and the Section 3.2 memory and replication
// studies.
//
// Usage:
//
//	qmodel -figure 5                 # render one surface as CSV
//	qmodel -summary                  # peaks and named grid points
//	qmodel -point -hit 0.8 -size 8   # evaluate one operating point
//	qmodel -memory -replication      # section 3.2 sweeps
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/experiments"
	"repro/internal/queuemodel"
)

func main() {
	var (
		figure      = flag.Int("figure", 0, "emit figure 3, 4, 5, or 6 as CSV")
		summary     = flag.Bool("summary", false, "print surface peaks and named points")
		point       = flag.Bool("point", false, "evaluate a single operating point")
		hit         = flag.Float64("hit", 0.8, "locality-oblivious hit rate for -point")
		size        = flag.Float64("size", 8, "average file size in KB for -point")
		nodes       = flag.Int("nodes", 16, "cluster size")
		memMB       = flag.Int64("mem", 128, "per-node memory in MB")
		replication = flag.Float64("r", 0, "replication fraction")
		util        = flag.Bool("util", false, "with -point: print per-center utilizations and latency")
		memory      = flag.Bool("memory", false, "run the section 3.2 memory sweep")
		replSweep   = flag.Bool("replication", false, "run the section 3.2 replication sweep")
		table1      = flag.Bool("table1", false, "print the Table 1 parameters")
	)
	flag.Parse()

	params := queuemodel.DefaultParams()
	params.Nodes = *nodes
	params.CacheBytes = *memMB << 20
	params.Replication = *replication
	params.AvgFileKB = *size
	if err := checkFlags(params, *memMB, *hit, *point); err != nil {
		fmt.Fprintln(os.Stderr, "qmodel:", err)
		os.Exit(1)
	}

	did := false
	if *table1 {
		fmt.Print(experiments.Table1())
		did = true
	}
	if *figure != 0 {
		hits, sizes := queuemodel.DefaultGrid()
		var s queuemodel.Surface
		switch *figure {
		case 3:
			s = queuemodel.ObliviousSurface(params, hits, sizes)
		case 4:
			s = queuemodel.ConsciousSurface(params, hits, sizes)
		case 5:
			s = queuemodel.IncreaseSurface(params, hits, sizes)
		case 6:
			fig5 := queuemodel.IncreaseSurface(params, hits, sizes)
			fig := experiments.Figure6(fig5)
			fmt.Print(fig.CSV())
			return
		default:
			fmt.Fprintf(os.Stderr, "qmodel: no figure %d (want 3-6)\n", *figure)
			os.Exit(1)
		}
		if err := s.WriteCSV(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "qmodel:", err)
			os.Exit(1)
		}
		return
	}
	if *summary {
		fig3, fig4, fig5 := experiments.ModelSurfaces()
		fmt.Print(experiments.SurfaceSummary(fig3))
		fmt.Print(experiments.SurfaceSummary(fig4))
		fmt.Print(experiments.SurfaceSummary(fig5))
		did = true
	}
	if *point {
		ob := params.Oblivious(*hit)
		co := params.Conscious(*hit)
		hlc, h := params.HitRates(*hit)
		q := params.ForwardFraction(h)
		fmt.Printf("point: N=%d C=%dMB R=%.0f%% Hlo=%.2f S=%gKB\n",
			params.Nodes, *memMB, params.Replication*100, *hit, *size)
		fmt.Printf("  oblivious:  %8.0f req/s (bottleneck %s)\n", ob.RequestsPerSec, ob.Bottleneck)
		fmt.Printf("  conscious:  %8.0f req/s (bottleneck %s, Hlc=%.3f, h=%.3f, Q=%.3f)\n",
			co.RequestsPerSec, co.Bottleneck, hlc, h, q)
		fmt.Printf("  increase:   %8.2fx\n", co.RequestsPerSec/ob.RequestsPerSec)
		if *util {
			fmt.Println("  conscious per-center utilization at the bound:")
			us := params.Utilizations(co.RequestsPerSec, hlc, q)
			for c := queuemodel.Center(0); int(c) < len(us); c++ {
				fmt.Printf("    %-8s %6.1f%%\n", c, us[c]*100)
			}
			lat := params.Latency(co.RequestsPerSec*0.9, hlc, q)
			fmt.Printf("  latency at 90%% of the bound: %.2f ms\n", lat*1000)
		}
		did = true
	}
	if *memory {
		fmt.Print(experiments.MemorySweep().Render())
		did = true
	}
	if *replSweep {
		fmt.Print(experiments.ReplicationSweep().Render())
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

// checkFlags rejects flag values the model has no answer for, before any
// mode runs. -hit and -size are read only by -point: the surfaces set the
// file size per grid point.
func checkFlags(p queuemodel.Params, memMB int64, hit float64, point bool) error {
	if memMB < 1 || memMB > math.MaxInt64>>20 {
		return fmt.Errorf("-mem %d MB outside [1, %d]", memMB, int64(math.MaxInt64>>20))
	}
	if !point {
		p.AvgFileKB = 1
	} else if !(hit >= 0 && hit <= 1) {
		return fmt.Errorf("-hit %v outside [0,1]", hit)
	}
	return p.Validate()
}
