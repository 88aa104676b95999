// Command l2sd runs a live L2S cluster over HTTP on loopback ports — the
// native server of the paper's conclusion. It serves a synthetic catalog,
// gossips load and server-set changes between nodes, hands requests off
// over persistent peer connections, and survives node crashes: heartbeat failure detection
// evicts dead nodes from server sets, hand-offs retry with backoff, and a
// restarted node rejoins through heartbeats and anti-entropy.
//
// Every node decides with the simulator's L2S rule (core.Decide) and takes
// the simulator's core.Options from a -policy l2s spec, validated exactly as
// clustersim validates it, so any l2s spec clustersim runs (oracle=true
// aside) l2sd runs too.
//
// Usage:
//
//	l2sd -nodes 4                       # run until interrupted
//	l2sd -nodes 4 -demo 10s             # drive built-in load, print stats
//	l2sd -nodes 4 -policy l2s:T=30,delta=8 -demo 10s     # spec-tuned thresholds
//	l2sd -nodes 4 -demo 10s -kill 2@3s -restart 4s   # crash + rejoin drill
//	l2sd -nodes 4 -demo 10s -droprate 0.1 -faultseed 7  # lossy gossip
//	curl $(l2sd prints the URLs)/files/f/17
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/zipf"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 4, "cluster size")
		files   = flag.Int("files", 2000, "synthetic catalog size")
		avgKB   = flag.Float64("avgkb", 24, "mean file size in KB")
		cacheMB = flag.Int64("cache", 32, "per-node cache in MB")
		polSpec = flag.String("policy", "l2s", "L2S policy spec, e.g. l2s:T=30,t=5,delta=8,shrink=10 (unset keys keep T=20, t=10, delta=4)")
		miss    = flag.Duration("misspenalty", 2*time.Millisecond, "artificial disk delay per cache miss")
		demo    = flag.Duration("demo", 0, "run a built-in load generator for this long, then exit")
		workers = flag.Int("workers", 64, "demo load-generator concurrency")
		alpha   = flag.Float64("alpha", 0.9, "demo request popularity exponent")
		replay  = flag.String("replay", "", "replay a generated trace instead of synthetic demo load: a paper trace (calgary, clarknet, nasa, rutgers) or any generation spec")
		scale   = flag.Float64("scale", 0.02, "request-count scale for -replay")

		heartbeat = flag.Duration("heartbeat", 500*time.Millisecond, "health heartbeat period")

		kill       = flag.String("kill", "", "crash node n after d, format n@d (e.g. 2@3s)")
		restart    = flag.Duration("restart", 0, "restart the killed node this long after the kill (0 = never)")
		droprate   = flag.Float64("droprate", 0, "fault injection: drop this fraction of control messages")
		faultdelay = flag.Duration("faultdelay", 0, "fault injection: delay control messages up to this duration")
		duprate    = flag.Float64("duprate", 0, "fault injection: duplicate this fraction of control messages")
		faultseed  = flag.Int64("faultseed", 1, "fault injection / jitter RNG seed")
		jsonOut    = flag.Bool("json", false, "print final cluster stats as JSON")
		metrics    = flag.Bool("metrics", false, "dump every node's /metricsz Prometheus exposition with the final stats")
	)
	flag.Parse()

	if err := trace.CheckScale(*scale); err != nil {
		fatal(fmt.Errorf("-scale: %w", err))
	}
	if err := checkFlags(*files, *avgKB, *alpha, *workers); err != nil {
		fatal(err)
	}
	// The daemon IS the l2s policy, so -policy accepts only the l2s family
	// of the shared spec grammar; native.WithL2S validates the result as the
	// simulator does.
	ps, err := policy.ParseSpec(*polSpec)
	if err != nil {
		fatal(err)
	}
	if ps.Name != "l2s" {
		fatal(fmt.Errorf("l2sd runs the l2s policy only, not %q (use clustersim to simulate other policies)", ps.Name))
	}
	l2s := ps.Options(policy.Options{L2S: core.DefaultOptions()}).L2S.(core.Options)

	var store *native.MemStore
	var replayTrace *trace.Trace
	if *replay != "" {
		spec, err := trace.ParseGenSpec(*replay)
		if err != nil {
			fatal(err)
		}
		replayTrace, err = trace.Generate(spec.Scaled(*scale))
		if err != nil {
			fatal(err)
		}
		store = native.StoreFromTrace(replayTrace)
	} else {
		store = native.SyntheticStore(*files, *avgKB, 1)
	}

	opts := []native.Option{
		native.WithNodes(*nodes),
		native.WithStore(store),
		native.WithCacheMB(*cacheMB),
		native.WithL2S(l2s),
		native.WithMissPenalty(*miss),
		native.WithSeed(*faultseed),
		native.WithHealth(native.HealthOptions{
			HeartbeatEvery: *heartbeat,
			SyncEvery:      4 * *heartbeat,
			SuspectAfter:   1,
			DeadAfter:      3,
		}),
	}
	var fi *native.FaultInjector
	if *droprate != 0 || *faultdelay != 0 || *duprate != 0 { // the setters refuse NaN and negatives
		fi = native.NewFaultInjector(*faultseed)
		if err := fi.SetDropRate(*droprate); err != nil {
			fatal(err)
		}
		if err := fi.SetDelay(*faultdelay, 1); err != nil {
			fatal(err)
		}
		if err := fi.SetDupRate(*duprate); err != nil {
			fatal(err)
		}
		opts = append(opts, native.WithFaults(fi))
	}

	cluster, err := native.Start(opts...)
	if err != nil {
		fatal(err)
	}
	defer cluster.Shutdown()

	served, meanKB := describe(store)
	fmt.Printf("l2sd: %d-node L2S cluster serving %d files (~%.0f KB each)\n", *nodes, served, meanKB)
	for i, u := range cluster.URLs() {
		fmt.Printf("  node %d: %s/files/f/<id>   (stats: %s/statsz)\n", i, u, u)
	}
	if fi != nil {
		fmt.Printf("l2sd: fault injection on (drop=%.0f%% delay<=%v dup=%.0f%% seed=%d)\n",
			*droprate*100, *faultdelay, *duprate*100, *faultseed)
	}
	if err := scheduleKill(cluster, *kill, *restart); err != nil {
		fatal(err)
	}

	if replayTrace != nil {
		name := replayTrace.Name
		if name == "" {
			name = *replay
		}
		fmt.Printf("l2sd: replaying %s (%d requests) with %d workers...\n", name, replayTrace.NumRequests(), *workers)
		res, err := native.Replay(cluster, replayTrace, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("l2sd: %d completed (%d errors, %d client retries) in %v: %.0f req/s\n",
			res.Completed, res.Errors, res.Retries, res.Wall.Round(time.Millisecond), res.Rate)
		printStats(cluster, fi, *jsonOut)
		dumpMetrics(cluster, *metrics)
		return
	}

	if *demo > 0 {
		runDemo(cluster, *demo, *workers, *files, *alpha)
		printStats(cluster, fi, *jsonOut)
		dumpMetrics(cluster, *metrics)
		return
	}

	fmt.Println("l2sd: ^C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	printStats(cluster, fi, *jsonOut)
	dumpMetrics(cluster, *metrics)
}

// dumpMetrics prints each node's Prometheus exposition — the same text
// /metricsz serves over HTTP, read straight from the node's registry so it
// works even after the HTTP listeners have begun shutting down.
func dumpMetrics(cluster *native.Cluster, enabled bool) {
	if !enabled {
		return
	}
	for i := 0; i < cluster.Len(); i++ {
		fmt.Printf("# node %d metrics\n", i)
		if err := cluster.Node(i).WriteMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "l2sd: metrics:", err)
		}
	}
}

// checkFlags rejects values l2sd cannot serve, before any node starts:
// -files and -avgkb take the trace grammar's files and filekb ranges.
func checkFlags(files int, avgKB, alpha float64, workers int) error {
	switch {
	case files < 1 || files > 5e7:
		return fmt.Errorf("-files %d outside [1, 5e7]", files)
	case !(avgKB > 0 && avgKB <= 1e6):
		return fmt.Errorf("-avgkb %v outside (0, 1e6]", avgKB)
	case !(alpha >= 0 && alpha <= math.MaxFloat64):
		return fmt.Errorf("-alpha %v must be finite and >= 0", alpha)
	case workers < 1:
		return fmt.Errorf("-workers %d: need at least 1", workers)
	}
	return nil
}

// describe returns the served catalog's file count and mean size in KB.
func describe(st *native.MemStore) (files int, meanKB float64) {
	var total int64
	for i := range st.Len() {
		total += int64(len(st.Body(cache.FileID(i))))
	}
	return st.Len(), float64(total) / float64(st.Len()) / 1024
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "l2sd:", err)
	os.Exit(1)
}

// scheduleKill parses -kill n@d and arms the crash (and optional restart)
// timers.
func scheduleKill(cluster *native.Cluster, spec string, restart time.Duration) error {
	if spec == "" {
		return nil
	}
	at := strings.IndexByte(spec, '@')
	if at < 0 {
		return fmt.Errorf("bad -kill %q, want n@duration (e.g. 2@3s)", spec)
	}
	node, err := strconv.Atoi(spec[:at])
	if err != nil || node < 0 || node >= cluster.Len() {
		return fmt.Errorf("bad -kill node %q, cluster has nodes 0..%d", spec[:at], cluster.Len()-1)
	}
	after, err := time.ParseDuration(spec[at+1:])
	if err != nil || after <= 0 {
		return fmt.Errorf("bad -kill delay %q", spec[at+1:])
	}
	time.AfterFunc(after, func() {
		fmt.Printf("l2sd: FAULT killing node %d\n", node)
		if err := cluster.Stop(node); err != nil {
			fmt.Fprintln(os.Stderr, "l2sd: kill:", err)
			return
		}
		if restart > 0 {
			time.AfterFunc(restart, func() {
				fmt.Printf("l2sd: FAULT restarting node %d\n", node)
				if err := cluster.Restart(node); err != nil {
					fmt.Fprintln(os.Stderr, "l2sd: restart:", err)
				}
			})
		}
	})
	return nil
}

// runDemo drives Zipf-popular requests through the cluster round robin.
func runDemo(cluster *native.Cluster, d time.Duration, workers, files int, alpha float64) {
	fmt.Printf("l2sd: driving load for %v with %d workers...\n", d, workers)
	dist := zipf.New(alpha, int64(files))
	// Idle connections sized to the workers, as in native.Replay.
	client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
	defer client.CloseIdleConnections()
	stop := time.Now().Add(d)
	var done, errs atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			urls := cluster.URLs()
			for time.Now().Before(stop) {
				id := dist.Sample(rng) - 1
				path := fmt.Sprintf("/files/f/%d", id)
				// Like a round-robin-DNS client, retry a failed request
				// (transport error, truncated body, non-2xx) against the next
				// address; only a request that fails everywhere is an error.
				ok := false
				for attempt := 0; attempt <= len(urls); attempt++ {
					url := cluster.NextURL()
					if attempt > 0 {
						url = urls[(id+int64(attempt))%int64(len(urls))]
					}
					resp, err := client.Get(url + path)
					if err != nil {
						continue
					}
					_, cerr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if cerr != nil || resp.StatusCode/100 != 2 {
						continue
					}
					ok = true
					break
				}
				if ok {
					done.Add(1)
				} else {
					errs.Add(1)
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	fmt.Printf("l2sd: %d requests completed, %d errors, %.0f req/s\n",
		done.Load(), errs.Load(), float64(done.Load())/d.Seconds())
}

func printStats(cluster *native.Cluster, fi *native.FaultInjector, asJSON bool) {
	if asJSON {
		out := struct {
			Totals native.Stats       `json:"totals"`
			Nodes  []native.Stats     `json:"nodes"`
			Faults *native.FaultStats `json:"faults,omitempty"`
		}{Totals: cluster.Totals()}
		for i := 0; i < cluster.Len(); i++ {
			out.Nodes = append(out.Nodes, cluster.Node(i).Snapshot())
		}
		if fi != nil {
			fs := fi.Stats()
			out.Faults = &fs
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
		return
	}
	fmt.Println("per-node statistics:")
	for i := 0; i < cluster.Len(); i++ {
		s := cluster.Node(i).Snapshot()
		fmt.Printf("  node %d: served=%-7d proxied-out=%-7d handoffs-in=%-7d hit-rate=%5.1f%% cache=%dKB gossip=%d/%d-fail dead-peers=%d\n",
			s.ID, s.Served, s.Proxied, s.Received, s.HitRate*100, s.CacheUsed>>10, s.GossipOut, s.GossipFail, s.DeadPeers)
	}
	t := cluster.Totals()
	fmt.Printf("cluster: served=%d hit-rate=%.1f%% handoffs=%d over %d channels (%d dialled) retries=%d failovers=%d gossip=%d (%d failed, %d retried)\n",
		t.Served+t.Received, t.HitRate*100, t.Proxied, t.HandoffConns, t.HandoffDials, t.Retries, t.Failovers, t.GossipOut, t.GossipFail, t.GossipRetry)
	if fi != nil {
		fs := fi.Stats()
		fmt.Printf("faults injected: dropped=%d delayed=%d duplicated=%d blocked=%d\n",
			fs.Dropped, fs.Delayed, fs.Duplicated, fs.Blocked)
	}
}
