package native

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// ReplayResult summarizes a trace replay against a live cluster.
type ReplayResult struct {
	Completed uint64
	Errors    uint64 // client-visible failures after all retries
	Retries   uint64 // transparent client-side retries (next DNS address)
	Wall      time.Duration
	Rate      float64 // completed requests per wall-clock second
}

// StoreFromTrace builds a MemStore whose files mirror a simulator trace's
// catalog: file id i becomes /f/<i> with the trace's size. Contents are
// synthetic bytes, shared as in SyntheticStore.
func StoreFromTrace(tr *trace.Trace) *MemStore { return syntheticStore(tr.Sizes) }

// Replay drives a trace's request stream through the live cluster with the
// given concurrency, entering round robin — the native-server analogue of
// the simulator's saturation methodology. Requests preserve the trace's
// order per worker (workers interleave).
func Replay(cluster *Cluster, tr *trace.Trace, concurrency int) (ReplayResult, error) {
	if concurrency < 1 {
		return ReplayResult{}, fmt.Errorf("native: replay needs concurrency >= 1")
	}
	if err := tr.Validate(); err != nil {
		return ReplayResult{}, err
	}
	// One transport for the run, keeping as many idle connections per node
	// as there are workers: the default of two would have most of them
	// reconnect per request, and the replay would measure connect(2).
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: concurrency}}
	defer client.CloseIdleConnections()
	start := time.Now()
	var idx, completed, errs, retried atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := idx.Add(1) - 1
				if i >= uint64(tr.NumRequests()) {
					return
				}
				path := fmt.Sprintf("/files/f/%d", tr.Requests[i])
				// A real client whose connection fails (or whose response is
				// truncated by a node crash) retries against the next address
				// round-robin DNS gave it. Retries walk the address list in
				// order so every node is tried before giving up; only a
				// request that fails at every address is a client-visible
				// error.
				urls := cluster.URLs()
				ok := false
				for attempt := 0; attempt <= len(urls); attempt++ {
					var url string
					if attempt == 0 {
						url = cluster.NextURL()
					} else {
						retried.Add(1)
						url = urls[(int(i)+attempt)%len(urls)]
					}
					resp, err := client.Get(url + path)
					if err != nil {
						continue
					}
					_, cerr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if cerr != nil || resp.StatusCode >= http.StatusInternalServerError {
						continue
					}
					ok = resp.StatusCode == http.StatusOK
					break
				}
				if ok {
					completed.Add(1)
				} else {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	res := ReplayResult{
		Completed: completed.Load(),
		Errors:    errs.Load(),
		Retries:   retried.Load(),
		Wall:      wall,
	}
	if wall > 0 {
		res.Rate = float64(res.Completed) / wall.Seconds()
	}
	return res, nil
}
