// Command tracegen generates, characterizes, and converts the WWW server
// workloads that drive the simulator.
//
// Usage:
//
//	tracegen -list                         # show the Table 2 specs
//	tracegen -spec nasa -scale 0.1 -out nasa.trace
//	tracegen -characterize nasa.trace      # Table 2 statistics of a file
//	tracegen -clf access.log -out real.trace
//	tracegen -spec stationary:files=50000,filekb=30,reqkb=15,alpha=0.9,reqs=1000000 -out custom.trace
//	tracegen -spec "churn:files=20000,filekb=16,reqs=500000,lifetime=10" -out churn.trace
//	tracegen -spec "flash:files=8000,filekb=20,reqs=300000,reqkb=12,alpha=0.9" -out flash.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the paper trace specs")
		specText = flag.String("spec", "", "generation spec: a paper trace (calgary, clarknet, nasa, rutgers) or mode[:key=value,...], e.g. churn:files=20000,filekb=16,reqs=500000,lifetime=10 or clarknet:reqs=100000 (modes: stationary, churn, diurnal, flash)")
		scale    = flag.Float64("scale", 1.0, "request-count scale factor")
		out      = flag.String("out", "", "output trace file")
		charFile = flag.String("characterize", "", "print Table 2 statistics for a trace file")
		clf      = flag.String("clf", "", "convert a Common Log Format access log")
	)
	flag.Parse()

	if err := trace.CheckScale(*scale); err != nil {
		fatalIf(fmt.Errorf("-scale: %w", err))
	}

	switch {
	case *list:
		fmt.Printf("%-10s %8s %10s %10s %9s %6s\n", "name", "files", "avgfileKB", "requests", "avgreqKB", "alpha")
		for _, s := range trace.PaperTraces() {
			fmt.Printf("%-10s %8d %10.1f %10d %9.1f %6.2f\n",
				s.Name, s.Files, s.AvgFileKB, s.Requests, s.AvgReqKB, s.Alpha)
		}
	case *specText != "":
		spec, err := trace.ParseGenSpec(*specText)
		fatalIf(err)
		spec = spec.Scaled(*scale)
		fmt.Printf("spec: %s\n", spec.SpecString())
		tr, err := trace.Generate(spec)
		fatalIf(err)
		printCharacteristics(tr)
		writeOut(tr, *out)
	case *charFile != "":
		f, err := os.Open(*charFile)
		fatalIf(err)
		defer f.Close()
		tr, err := trace.Read(f)
		fatalIf(err)
		printCharacteristics(tr)
	case *clf != "":
		f, err := os.Open(*clf)
		fatalIf(err)
		defer f.Close()
		r, err := trace.NewLogReader(f) // transparent gzip
		fatalIf(err)
		tr, skipped, err := trace.ParseCLF(*clf, r)
		fatalIf(err)
		fmt.Printf("parsed %d requests (%d lines skipped)\n", tr.NumRequests(), skipped)
		printCharacteristics(tr)
		writeOut(tr, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func printCharacteristics(tr *trace.Trace) {
	ch := trace.Characterize(tr)
	fmt.Printf("trace %s: %d files (%.1f KB avg, %.0f MB total), %d requests (%.1f KB avg), fitted alpha %.2f\n",
		ch.Name, ch.CatalogFiles, ch.CatalogAvgKB, ch.CatalogMB, ch.NumRequests, ch.AvgReqKB, ch.Alpha)
}

func writeOut(tr *trace.Trace, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fatalIf(err)
	defer f.Close()
	n, err := tr.WriteTo(f)
	fatalIf(err)
	fmt.Printf("wrote %s (%d bytes)\n", path, n)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
