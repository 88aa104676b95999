package main

import (
	"runtime"
	"runtime/metrics"
	"time"
)

const heapGauge = "/memory/classes/heap/objects:bytes"

// heapWatch samples the live-heap gauge every 10 ms on its own goroutine,
// the method of perf.RunScalePoint: runtime/metrics does not stop the world.
type heapWatch struct {
	base uint64
	peak uint64 // written by the sampler, read once it is done
	stop chan struct{}
	done chan struct{}
}

// watchHeap collects garbage, takes the heap base and starts sampling.
func watchHeap() *heapWatch {
	s := []metrics.Sample{{Name: heapGauge}}
	runtime.GC()
	metrics.Read(s)
	base := s[0].Value.Uint64()
	w := &heapWatch{base: base, peak: base, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				if v := s[0].Value.Uint64(); v > w.peak {
					w.peak = v
				}
			}
		}
	}()
	return w
}

// peakMB stops the sampler and returns the peak growth over the post-GC base.
func (w *heapWatch) peakMB() float64 {
	close(w.stop)
	<-w.done
	return float64(w.peak-w.base) / (1 << 20)
}
