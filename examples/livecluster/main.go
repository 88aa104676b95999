// Livecluster: run the native L2S server (real HTTP, real gossip, real
// hand-offs) inside one process, fire traffic at it, and watch the
// distribution algorithm work: files stick to their server sets, requests
// entering elsewhere are handed off, and a node crash only costs the
// requests in flight there.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/native"
	"repro/internal/zipf"
)

func main() {
	cluster, err := native.Start(
		native.WithNodes(4),
		native.WithStore(native.SyntheticStore(500, 16, 1)),
		native.WithCacheMB(8),
		native.WithMissPenalty(time.Millisecond), // a pretend disk
		native.WithHealth(native.HealthOptions{
			HeartbeatEvery: 100 * time.Millisecond,
			SyncEvery:      250 * time.Millisecond,
			SuspectAfter:   1,
			DeadAfter:      3,
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()

	fmt.Println("4-node L2S cluster is live:")
	for i, u := range cluster.URLs() {
		fmt.Printf("  node %d at %s\n", i, u)
	}

	// Phase 1: drive Zipf-popular traffic round robin for a few seconds.
	fmt.Println("\nphase 1: 3 seconds of Zipf traffic through round-robin DNS")
	drive(cluster, 3*time.Second, 48, 500)
	report(cluster)

	// Phase 2: locality in action — one file, many entry points, one
	// server.
	fmt.Println("\nphase 2: the same file requested via every node")
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; i < cluster.Len(); i++ {
		resp, err := client.Get(cluster.URLs()[i] + "/files/f/42")
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		fmt.Printf("  entered at node %d -> served by node %s (forwarded by %q)\n",
			i, resp.Header.Get("X-Served-By"), resp.Header.Get("X-Forwarded-By"))
	}

	// Phase 3: crash a node; the survivors keep serving.
	fmt.Println("\nphase 3: crashing node 2, then 2 more seconds of traffic")
	if err := cluster.Stop(2); err != nil {
		log.Fatal(err)
	}
	drive(cluster, 2*time.Second, 48, 500)
	report(cluster)

	// Phase 4: the crashed node rejoins — heartbeats re-detect it, and
	// anti-entropy restores its server-set replica.
	fmt.Println("\nphase 4: restarting node 2, then 2 more seconds of traffic")
	if err := cluster.Restart(2); err != nil {
		log.Fatal(err)
	}
	drive(cluster, 2*time.Second, 48, 500)
	report(cluster)
	fmt.Println("\nno front-end, no single point of failure: the cluster")
	fmt.Println("kept serving with node 2 gone, and took it back on return.")
}

// drive fires Zipf-distributed requests using every node but the crashed
// ones as entry points.
func drive(cluster *native.Cluster, d time.Duration, workers, files int) {
	dist := zipf.New(0.9, int64(files))
	// Idle connections sized to the workers, or most requests reconnect.
	client := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	var completed, errs int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				file := dist.Sample(rng) - 1
				// A real client whose connection fails retries against the
				// next address DNS gave it.
				var resp *http.Response
				var err error
				for attempt := 0; attempt < cluster.Len(); attempt++ {
					url := fmt.Sprintf("%s/files/f/%d", cluster.NextURL(), file)
					resp, err = client.Get(url)
					if err == nil {
						break
					}
				}
				mu.Lock()
				if err != nil {
					errs++
				} else {
					completed++
				}
				mu.Unlock()
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	mu.Lock()
	fmt.Printf("  %d completed, %d errors (%.0f req/s)\n",
		completed, errs, float64(completed)/d.Seconds())
	mu.Unlock()
}

func report(cluster *native.Cluster) {
	for i := 0; i < cluster.Len(); i++ {
		s := cluster.Node(i).Snapshot()
		fmt.Printf("  node %d: served=%-6d handed-off=%-6d received=%-6d hit-rate=%.0f%%\n",
			i, s.Served, s.Proxied, s.Received, s.HitRate*100)
	}
}
