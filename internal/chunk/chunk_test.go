package chunk

import (
	"runtime"
	"testing"
)

func TestFillCoversEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, Min - 1, Min, 2 * Min, 3*Min + 7, 100003} {
			seen := make([]int32, n)
			Fill(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("procs=%d n=%d: index %d filled %d times", procs, n, i, c)
				}
			}
		}
	}
}
