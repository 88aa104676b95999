package native

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

func testStore(files int) *MemStore {
	bodies := make([][]byte, files)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("content-of-%d", i))
	}
	return NewMemStore(bodies)
}

func startTestCluster(t *testing.T, nodes int, opts core.Options) *Cluster {
	t.Helper()
	c, err := Start(
		WithNodes(nodes),
		WithStore(testStore(64)),
		WithCacheMB(1),
		WithL2S(opts),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

// testClient carries the tests' own requests: like the nodes, they keep off
// the process-wide http.DefaultTransport, whose idle connections would
// outlive the cluster a test shut down.
var testClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}, Timeout: 10 * time.Second}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp, body
}

func TestServeFile(t *testing.T) {
	c := startTestCluster(t, 3, core.DefaultOptions())
	resp, body := get(t, c.URLs()[0]+"/files/f/7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if string(body) != "content-of-7" {
		t.Fatalf("body %q", body)
	}
	if resp.Header.Get("X-Served-By") == "" {
		t.Fatal("missing X-Served-By")
	}
}

func TestNotFound(t *testing.T) {
	c := startTestCluster(t, 2, core.DefaultOptions())
	resp, _ := get(t, c.URLs()[0]+"/files/no/such/file")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, c.URLs()[0]+"/files/")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for empty path", resp.StatusCode)
	}
}

// waitServerSetKnown blocks until all n nodes hold a server set for file f.
// The set reaches the other nodes by an asynchronous broadcast; an entry
// node that has not heard it yet would elect itself.
func waitServerSetKnown(t *testing.T, c *Cluster, n int, f cache.FileID) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("server set of file %d did not reach every node", f), func() bool {
		for i := 0; i < n; i++ {
			if len(c.Node(i).serverSet(f)) == 0 {
				return false
			}
		}
		return true
	})
}

func TestLocalityStickiness(t *testing.T) {
	c := startTestCluster(t, 4, core.DefaultOptions())
	// Ask different nodes for the same file: all replies must come from
	// the same service node (the file's server set has one member under
	// light load).
	resp, _ := get(t, c.URLs()[0]+"/files/f/3")
	servedBy := resp.Header.Get("X-Served-By")
	waitServerSetKnown(t, c, 4, 3)
	for i := 1; i < 8; i++ {
		resp, _ := get(t, c.URLs()[i%4]+"/files/f/3")
		if by := resp.Header.Get("X-Served-By"); by != servedBy {
			t.Fatalf("request %d served by %s, want sticky %s", i, by, servedBy)
		}
	}
}

func TestHandoffHappens(t *testing.T) {
	c := startTestCluster(t, 4, core.DefaultOptions())
	// Prime the file at its first server via node 0.
	resp, _ := get(t, c.URLs()[0]+"/files/f/5")
	owner := resp.Header.Get("X-Served-By")
	waitServerSetKnown(t, c, 4, 5)
	// A request entering at a different node must be forwarded (header
	// X-Forwarded-By set) yet still served by the owner.
	var forwarded bool
	for i := 0; i < 4; i++ {
		entry := c.URLs()[i]
		resp, _ := get(t, entry+"/files/f/5")
		if resp.Header.Get("X-Served-By") != owner {
			t.Fatalf("served by %s, want %s", resp.Header.Get("X-Served-By"), owner)
		}
		if resp.Header.Get("X-Forwarded-By") != "" {
			forwarded = true
		}
	}
	if !forwarded {
		t.Fatal("no hand-off observed from non-owner entry nodes")
	}
}

func TestCacheHitsAccumulate(t *testing.T) {
	c := startTestCluster(t, 2, core.DefaultOptions())
	for i := 0; i < 10; i++ {
		get(t, c.URLs()[0]+"/files/f/1")
	}
	totals := c.Totals()
	if totals.Hits < 8 {
		t.Fatalf("hits = %d, want most of 10 repeated requests", totals.Hits)
	}
	if totals.Misses < 1 {
		t.Fatal("first access must miss")
	}
}

func TestGossipUpdatesPeerViews(t *testing.T) {
	c := startTestCluster(t, 3, core.Options{T: 20, LowT: 10, BroadcastDelta: 1, ShrinkAfter: 60})
	// Drive concurrent slow-ish requests through node 1 to move its load,
	// with delta=1 every change broadcasts.
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := testClient.Get(c.URLs()[1] + fmt.Sprintf("/files/f/%d", i%32))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	// Allow gossip to drain.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		sent, _, _ := c.Node(1).gossip.stats()
		if sent > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("node 1 never gossiped a load update")
}

// holdLoads is a control transport that holds every load announcement
// until release is closed, tracking how many are outstanding per peer.
type holdLoads struct {
	base    http.RoundTripper
	release chan struct{}

	mu      sync.Mutex
	out     map[string]int // outstanding load POSTs by peer address
	total   int            // load POSTs seen
	maxPeer int            // the most ever outstanding to one peer
}

func (h *holdLoads) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != loadPath {
		return h.base.RoundTrip(req)
	}
	peer := req.URL.Host
	h.mu.Lock()
	h.out[peer]++
	h.total++
	h.maxPeer = max(h.maxPeer, h.out[peer])
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.out[peer]--
		h.mu.Unlock()
	}()
	select {
	case <-h.release:
		return h.base.RoundTrip(req)
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
}

func (h *holdLoads) seen() (total, maxPeer int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total, h.maxPeer
}

// TestLoadGossipOneInFlight: a node has at most one load announcement in
// flight. While the first is held, 20 more units of load start no second
// POST to any peer; once it is released, the node announces again until
// every peer's view reads its final load.
func TestLoadGossipOneInFlight(t *testing.T) {
	c, err := Start(WithNodes(3), WithStore(testStore(8)), WithCacheMB(1), WithHealth(noHeartbeat()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	n := c.Node(0)
	hold := &holdLoads{base: n.gossip.client.Transport, release: make(chan struct{}), out: map[string]int{}}
	n.gossip.client.Transport = hold

	const final = 20
	for i := 0; i < final; i++ {
		n.trackLoad(1)
	}
	// Wait for the first announcement to reach the transport for both
	// peers, then give any further ones time to arrive as well.
	deadline := time.Now().Add(time.Second)
	for total, _ := hold.seen(); total < 2; total, _ = hold.seen() {
		if time.Now().After(deadline) {
			t.Fatalf("%d load POSTs reached the transport, want one per peer", total)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if total, maxPeer := hold.seen(); maxPeer > 1 {
		t.Fatalf("%d load POSTs sent while the first was held, up to %d outstanding to one peer; want at most 1", total, maxPeer)
	}

	close(hold.release)
	deadline = time.Now().Add(2 * time.Second)
	for _, peer := range []int{1, 2} {
		for c.Node(peer).state.viewLoad(0) != final {
			if time.Now().After(deadline) {
				t.Fatalf("node %d sees node 0 at load %d, want the final %d", peer, c.Node(peer).state.viewLoad(0), final)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestControlEndpointsValidate(t *testing.T) {
	c := startTestCluster(t, 2, core.DefaultOptions())
	resp, err := testClient.Post(c.URLs()[0]+loadPath, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty control body accepted: %d", resp.StatusCode)
	}
	// A negative load would win every least-loaded choice: refused, and
	// never installed.
	resp, err = testClient.Post(c.URLs()[0]+loadPath, "application/json", strings.NewReader(`{"node":1,"load":-1000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%s accepted a negative load: %d", loadPath, resp.StatusCode)
	}
	if got := c.Node(0).state.viewLoad(1); got < 0 {
		t.Fatalf("node 0 installed load %d for node 1", got)
	}
	// A set update for a file outside the 64-file catalogue is accepted on
	// the wire but installs nothing.
	for _, doc := range []string{`[{"file":64,"nodes":[1],"version":1}]`, `[{"file":-1,"nodes":[1],"version":1}]`} {
		resp, err := testClient.Post(c.URLs()[0]+syncPath, "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	n := c.Node(0)
	sets := len(n.state.exportSets())
	if sets != 0 {
		t.Fatalf("node 0 installed %d server sets for files outside the catalogue", sets)
	}
}

func TestAppliedSetUpdateRedirectsTraffic(t *testing.T) {
	c := startTestCluster(t, 3, core.DefaultOptions())
	// Tell node 0 that file /f/9 lives on node 2.
	c.Node(0).state.applySet(SetUpdate{File: 9, Nodes: []int{2}})
	resp, _ := get(t, c.URLs()[0]+"/files/f/9")
	if by := resp.Header.Get("X-Served-By"); by != "2" {
		t.Fatalf("served by %s, want node 2 per the installed set", by)
	}
}

func TestFailoverFallsBackLocally(t *testing.T) {
	c := startTestCluster(t, 3, core.DefaultOptions())
	// Route /f/4 to node 2, then crash node 2.
	c.Node(0).state.applySet(SetUpdate{File: 4, Nodes: []int{2}})
	if err := c.Stop(2); err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, c.URLs()[0]+"/files/f/4")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after peer crash", resp.StatusCode)
	}
	if string(body) != "content-of-4" {
		t.Fatalf("wrong content after failover: %q", body)
	}
	if c.Node(0).Snapshot().Failovers == 0 {
		t.Fatal("failover not recorded")
	}
	// Subsequent requests avoid the dead node entirely.
	resp, _ = get(t, c.URLs()[0]+"/files/f/4")
	if by := resp.Header.Get("X-Served-By"); by == "2" {
		t.Fatal("dead node still selected")
	}
}

func TestReplicationUnderHotspot(t *testing.T) {
	// Low threshold + a miss penalty so open requests accumulate: a single
	// hot file must gain a second server.
	c, err := Start(
		WithNodes(3),
		WithStore(testStore(8)),
		WithCacheMB(1),
		WithL2S(core.Options{T: 2, LowT: 1, BroadcastDelta: 1, ShrinkAfter: 60}),
		WithServePenalty(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	// Pin the hot file to node 0, then hammer it through node 0 itself so
	// its open-request count rises past T and the algorithm replicates.
	for i := 0; i < 3; i++ {
		c.Node(i).state.applySet(SetUpdate{File: 0, Nodes: []int{0}})
	}
	var wg sync.WaitGroup
	for i := 0; i < 120; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := testClient.Get(c.URLs()[0] + "/files/f/0")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	grew := false
	for i := 0; i < 3; i++ {
		if len(c.Node(i).serverSet(0)) > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("hot file's server set never replicated under overload")
	}
}

func TestStatszEndpoint(t *testing.T) {
	c := startTestCluster(t, 2, core.DefaultOptions())
	get(t, c.URLs()[0]+"/files/f/2")
	resp, body := get(t, c.URLs()[0]+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d", resp.StatusCode)
	}
	if len(body) == 0 || body[0] != '{' {
		t.Fatalf("statsz body %q", body)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	if _, err := Start(WithNodes(0), WithStore(testStore(1))); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := Start(WithNodes(1)); err == nil {
		t.Fatal("nil store accepted")
	}
}

// TestNodeCacheIsTheSimulatorsLRU replays a trace one request at a time
// through a one-node cluster whose cache holds a fraction of the catalogue:
// the node's hits, misses and resident bytes are exactly those of the
// simulator's cache fed the same stream.
func TestNodeCacheIsTheSimulatorsLRU(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "lru", Files: 400, AvgFileKB: 16, Requests: 4000, AvgReqKB: 12, Alpha: 0.8, Seed: 5,
	})
	c, err := Start(WithNodes(1), WithStore(StoreFromTrace(tr)), WithCacheMB(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	res, err := Replay(c, tr, 1)
	if err != nil || res.Errors != 0 {
		t.Fatalf("replay: %v, %d errors", err, res.Errors)
	}

	lru := cache.NewLRU(1 << 20)
	for _, f := range tr.Requests {
		lru.Access(f, tr.Size(f))
	}
	want := lru.Stats()
	s := c.Node(0).Snapshot()
	if s.Hits != want.Hits || s.Misses != want.Total-want.Hits || s.CacheUsed != lru.Used() {
		t.Fatalf("node: %d hits, %d misses, %d B cached; simulator's LRU: %d, %d, %d B",
			s.Hits, s.Misses, s.CacheUsed, want.Hits, want.Total-want.Hits, lru.Used())
	}
	if s.Misses <= uint64(tr.NumFiles()) {
		t.Fatalf("%d misses over a %d-file catalogue: the cache never evicted", s.Misses, tr.NumFiles())
	}
}

func TestRoundRobinURLs(t *testing.T) {
	c := startTestCluster(t, 3, core.DefaultOptions())
	a, b, d := c.NextURL(), c.NextURL(), c.NextURL()
	if a == b || b == d || a == d {
		t.Fatal("round robin did not rotate")
	}
	if c.NextURL() != a {
		t.Fatal("rotation did not wrap")
	}
}

func TestReplayTrace(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "replay", Files: 100, AvgFileKB: 4, Requests: 1500,
		AvgReqKB: 3, Alpha: 1, Seed: 9,
	})
	c, err := Start(
		WithNodes(3),
		WithStore(StoreFromTrace(tr)),
		WithCacheMB(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	res, err := Replay(c, tr, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != uint64(tr.NumRequests()) {
		t.Fatalf("completed %d of %d (errors %d)", res.Completed, tr.NumRequests(), res.Errors)
	}
	if res.Rate <= 0 {
		t.Fatal("no rate measured")
	}
	// Repeated Zipf requests must hit caches.
	if c.Totals().HitRate < 0.5 {
		t.Fatalf("hit rate %.2f too low for a Zipf replay", c.Totals().HitRate)
	}
}

func TestReplayValidation(t *testing.T) {
	c := startTestCluster(t, 2, core.DefaultOptions())
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "v", Files: 5, AvgFileKB: 4, Requests: 10, AvgReqKB: 4, Alpha: 1, Seed: 1,
	})
	if _, err := Replay(c, tr, 0); err == nil {
		t.Fatal("zero concurrency accepted")
	}
}

// TestAntiEntropyCarriesLargeState: a node holding 120,000 server sets
// syncs every one of them to its peer. As one JSON document that state is
// larger than the 4 MiB a sync body may be, so the peer refused it whole
// and the sender, counting a delivery failure, marked a healthy peer
// suspect.
func TestAntiEntropyCarriesLargeState(t *testing.T) {
	const files = 120_000
	c, err := Start(WithNodes(2), WithStore(SyntheticStore(files, 1, 1)), WithCacheMB(1), WithHealth(noHeartbeat()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	src, dst := c.Node(0), c.Node(1)
	for f := range files {
		src.state.applySet(SetUpdate{File: cache.FileID(f), Nodes: []int{f % 2}, Version: uint64(1 + f%3)})
	}
	src.syncToPeer()
	sent, failed, _ := src.gossip.stats()
	if failed != 0 || src.peerHealth(1) != PeerAlive {
		t.Fatalf("sync of %d sets: %d of %d messages undelivered, peer %v", files, failed, sent, src.peerHealth(1))
	}
	want, got := src.state.exportSets(), dst.state.exportSets()
	if len(got) != files || !sameUpdates(sortedByFile(got), sortedByFile(want)) {
		t.Fatalf("the peer holds %d of %d sets, or different ones", len(got), files)
	}
	t.Logf("%d sets in %d messages", files, sent)
}

// TestSyncBodiesFitTheLimit: every message syncBodies makes is a JSON list
// no larger than the limit (but for an update that alone exceeds it), the
// lists together carry every update in order, and a state that fits the
// limit is one message byte-identical to the whole list's encoding.
func TestSyncBodiesFitTheLimit(t *testing.T) {
	var us []SetUpdate
	for f := range 500 {
		us = append(us, SetUpdate{File: cache.FileID(f), Nodes: []int{f % 7, 7 + f%5}[:1+f%2], Version: uint64(f * f)})
	}
	us = append(us, SetUpdate{File: 500, Version: 3}) // a tombstone
	whole, err := json.Marshal(us)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 40, 41, 100, 1000, len(whole) - 1, len(whole)} {
		var got []SetUpdate
		messages := 0
		syncBodies(us, limit, func(body []byte) bool {
			messages++
			var part []SetUpdate
			if err := json.Unmarshal(body, &part); err != nil {
				t.Fatalf("limit %d: message %d does not decode: %v", limit, messages, err)
			}
			if len(body) > limit && len(part) != 1 {
				t.Fatalf("limit %d: message %d holds %d updates in %d bytes", limit, messages, len(part), len(body))
			}
			if limit == len(whole) && !bytes.Equal(body, whole) {
				t.Fatalf("a state that fits is not the whole list's encoding")
			}
			got = append(got, part...)
			return true
		})
		if !sameUpdates(got, us) {
			t.Fatalf("limit %d: %d messages carried %d of %d updates, or changed them", limit, messages, len(got), len(us))
		}
	}
	// A failed send ends the sync.
	calls := 0
	syncBodies(us, 100, func([]byte) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("sync went on for %d messages after the first failed", calls)
	}
}
