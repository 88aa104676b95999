// Package chunk runs an element-wise pass over [0, n) as contiguous ranges
// on up to GOMAXPROCS goroutines. It is the one place set-up code (trace
// calibration, the shot-noise synthesizer, the Zipf table) goes parallel:
// every caller computes element i from i alone, so no output depends on how
// the range was cut or which goroutine ran a piece.
package chunk

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Min is the smallest piece of a pass worth handing out on its own: a few
// thousand powers or logarithms, ~0.05 ms.
const Min = 4096

// Fill calls fill on disjoint contiguous ranges that cover [0, n), on up to
// GOMAXPROCS goroutines, and returns when all of them have. fill must
// compute element i from i alone, so that the chunking cannot show in the
// result. The range is cut into pieces of Min to 2·Min elements that the
// goroutines take in turn, the caller's included, so a core another
// process slows down takes fewer pieces instead of holding up the pass.
func Fill(n int, fill func(lo, hi int)) {
	pieces := max(1, n/Min)
	var next atomic.Int64
	work := func() {
		for p := int(next.Add(1) - 1); p < pieces; p = int(next.Add(1) - 1) {
			fill(p*n/pieces, (p+1)*n/pieces)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), pieces) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
