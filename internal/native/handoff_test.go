package native

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/trace"
)

// noHeartbeat keeps the failure detector out of a test: only hand-offs tell
// it anything.
func noHeartbeat() HealthOptions {
	return HealthOptions{HeartbeatEvery: time.Hour, SyncEvery: time.Hour, SuspectAfter: 1, DeadAfter: 2}
}

// pin makes every given node route file f to node owner.
func pin(c *Cluster, f cache.FileID, owner int, nodes ...int) {
	for _, i := range nodes {
		c.Node(i).state.applySet(SetUpdate{File: f, Nodes: []int{owner}, Version: 1})
	}
}

func frame(id uint32) []byte { return binary.BigEndian.AppendUint32(nil, id) }

// FuzzHandoffFrame feeds arbitrary bytes to a node over an upgraded channel.
// The frames are first parsed in process (a panic there fails the run), then
// sent to a live node: every well-formed frame before the first bad one gets
// its reply, the serving loop closes the connection at the first bad one or
// at end of input, and the node goes on answering /healthz.
func FuzzHandoffFrame(f *testing.F) {
	const files = 8
	f.Add(frame(1))
	f.Add(append(frame(1), frame(7)...))
	f.Add(frame(1)[:3])                                         // truncated frame
	f.Add(append(frame(2), frame(files)...))                    // good frame, then one past the catalogue
	f.Add(frame(1 << 31))                                       // negative as a FileID
	f.Add(frame(files - 1))                                     // last file in the catalogue
	f.Add(append(frame(3), frame(4)[:1]...))                    // good frame, then a truncated one
	f.Add([]byte{})                                             // no frame at all
	f.Add([]byte("GET /files/f/1 HTTP/1.1\r\nHost: x\r\n\r\n")) // HTTP after the upgrade
	c, err := Start(WithNodes(1), WithStore(testStore(files)), WithCacheMB(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Shutdown)
	n := c.Node(0)

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		// consumed: the input ends at or inside a frame, so the node reads
		// all of it before it hangs up.
		frames, consumed := 0, false
		for {
			id, err := readFrame(br, files)
			if err != nil {
				consumed = err == io.EOF
				break
			}
			if id < 0 || id >= files {
				t.Fatalf("readFrame accepted file %d of %d", id, files)
			}
			frames++
		}

		pc, err := n.dialPeer(0) // a one-node cluster's only peer address is its own
		if err != nil {
			t.Fatal(err)
		}
		defer n.handoffs.outbound.drop(pc.c)
		if err := pc.c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		go func() {
			// The node may hang up on a bad frame while this is still
			// writing; that error is the behaviour under test, not a failure.
			_, _ = pc.c.Write(data)
			_ = pc.c.(*net.TCPConn).CloseWrite()
		}()
		rbr := n.handoffs.readers.get(pc.c)
		defer n.handoffs.readers.put(rbr)
		replies := 0
		var rerr error
		for {
			var hdr []byte
			if hdr, rerr = rbr.Peek(replyHeaderLen); rerr != nil {
				break
			}
			size := int64(binary.BigEndian.Uint64(hdr))
			if size < 0 || size > 1<<20 {
				t.Fatalf("reply %d has length %d", replies, size)
			}
			if _, rerr = io.CopyN(io.Discard, rbr, replyHeaderLen+size); rerr != nil {
				break
			}
			replies++
		}
		if errors.Is(rerr, os.ErrDeadlineExceeded) {
			t.Fatalf("the serving loop kept the connection open after %d replies to %d frames", replies, frames)
		}
		// A node that hangs up with input unread resets the connection, which
		// may discard replies still in flight; only consumed input pins the count.
		if replies > frames || (consumed && (replies != frames || rerr != io.EOF)) {
			t.Fatalf("%d replies to %d frames (input consumed: %v), then %v", replies, frames, consumed, rerr)
		}
		if resp, _ := get(t, c.URLs()[0]+"/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz answers %d after the bad channel", resp.StatusCode)
		}
	})
}

// TestHandoffEndpointOnlyUpgrades: a plain GET of the upgrade endpoint is
// refused, not hijacked.
func TestHandoffEndpointOnlyUpgrades(t *testing.T) {
	c := startTestCluster(t, 1, core.DefaultOptions())
	resp, _ := get(t, c.URLs()[0]+handoffPath)
	if resp.StatusCode != http.StatusUpgradeRequired || resp.Header.Get("Upgrade") != handoffProto {
		t.Fatalf("plain GET of %s: status %d, Upgrade %q", handoffPath, resp.StatusCode, resp.Header.Get("Upgrade"))
	}
}

// TestHandoffReusesChannels: sequential hand-offs share one channel, k
// concurrent ones open at most k, and a warm pool dials no more.
func TestHandoffReusesChannels(t *testing.T) {
	c, err := Start(WithNodes(2), WithStore(testStore(8)), WithCacheMB(1),
		WithHealth(noHeartbeat()), WithServePenalty(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	pin(c, 3, 1, 0, 1)
	url := c.URLs()[0] + "/files/f/3"

	for i := 0; i < 200; i++ {
		if resp, _ := get(t, url); resp.Header.Get("X-Served-By") != "1" {
			t.Fatalf("request %d served by %q, want the pinned node 1", i, resp.Header.Get("X-Served-By"))
		}
	}
	s := c.Node(0).Snapshot()
	if s.Proxied != 200 || s.HandoffDials != 1 || s.HandoffConns != 1 {
		t.Fatalf("200 sequential hand-offs: proxied %d over %d dials, %d channels open; want 200, 1, 1",
			s.Proxied, s.HandoffDials, s.HandoffConns)
	}

	const k = 6
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := testClient.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}()
		}
		wg.Wait()
	}
	s = c.Node(0).Snapshot()
	if s.HandoffDials > k || s.HandoffConns > k || uint64(s.HandoffConns) != s.HandoffDials {
		t.Fatalf("%d concurrent hand-offs: %d dials, %d channels open; want at most %d, all kept", k, s.HandoffDials, s.HandoffConns, k)
	}
	if s.Retries != 0 || s.Failovers != 0 {
		t.Fatalf("retries %d, failovers %d on a healthy pair", s.Retries, s.Failovers)
	}
	if total := c.Totals(); total.HandoffDials != s.HandoffDials || total.HandoffConns != s.HandoffConns {
		t.Fatalf("Totals counts %d dials, %d channels; node 0 alone has %d, %d", total.HandoffDials, total.HandoffConns, s.HandoffDials, s.HandoffConns)
	}
}

// TestUnknownPathIsRefusedAtTheEdge: a path that names no file of the
// catalogue, /f/<i> in anything but its canonical form included, is a 404
// from the node it enters at, under /files and /local alike. It runs no
// decision, creates no server set, gossips nothing and hands nothing off,
// and the next real hand-off is unaffected.
func TestUnknownPathIsRefusedAtTheEdge(t *testing.T) {
	c, err := Start(WithNodes(2), WithStore(testStore(8)), WithCacheMB(1), WithHealth(noHeartbeat()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	pin(c, 2, 1, 0)
	n := c.Node(0)
	unknown := []string{"/missing", "/f/", "/f/8", "/f/02", "/f/+2", "/f/-1", "/f/2/", "/f/99999999999",
		"/f/" + strings.Repeat("9", 4997)}
	for _, path := range unknown {
		for _, endpoint := range []string{"/files", "/local"} {
			resp, _ := get(t, c.URLs()[0]+endpoint+path)
			if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Forwarded-By") != "" {
				t.Fatalf("%s%.20s (%d bytes): status %d, X-Forwarded-By %q; want a plain 404",
					endpoint, path, len(path), resp.StatusCode, resp.Header.Get("X-Forwarded-By"))
			}
		}
	}
	sent, _, _ := n.gossip.stats()
	sets := len(n.state.exportSets())
	if s := n.Snapshot(); sent != 0 || s.HandoffDials != 0 || s.Proxied != 0 || s.Received != 0 || sets != 1 {
		t.Fatalf("after %d unknown paths: %d gossip messages, %d dials, %d proxied, %d received, %d server sets; want 0, 0, 0, 0, 1",
			2*len(unknown), sent, s.HandoffDials, s.Proxied, s.Received, sets)
	}
	resp, body := get(t, c.URLs()[0]+"/files/f/2")
	if resp.StatusCode != http.StatusOK || string(body) != "content-of-2" ||
		resp.Header.Get("X-Served-By") != "1" || resp.Header.Get("X-Forwarded-By") != "0" {
		t.Fatalf("file 2: status %d, body %q, served by %q, forwarded by %q; want node 1 via node 0",
			resp.StatusCode, body, resp.Header.Get("X-Served-By"), resp.Header.Get("X-Forwarded-By"))
	}
}

// TestHandoffKillIsChecked: the fault injector's kill reaches the hand-off
// channel, which never touches the wrapped transport: each attempt is
// refused and counted before any exchange, pooled channel or not.
func TestHandoffKillIsChecked(t *testing.T) {
	fi := NewFaultInjector(1)
	c, err := Start(WithNodes(2), WithStore(testStore(8)), WithCacheMB(1),
		WithFaults(fi), WithHealth(noHeartbeat()), WithRetry(chaosRetry()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	pin(c, 2, 1, 0)
	get(t, c.URLs()[0]+"/files/f/2") // warm a channel
	fi.kill(1)
	resp, body := get(t, c.URLs()[0]+"/files/f/2")
	if resp.StatusCode != http.StatusOK || string(body) != "content-of-2" || resp.Header.Get("X-Served-By") != "0" {
		t.Fatalf("under a kill: status %d, body %q, served by %q; want a local failover", resp.StatusCode, body, resp.Header.Get("X-Served-By"))
	}
	if got, want := fi.Stats().Blocked, uint64(chaosRetry().Attempts); got != want {
		t.Fatalf("blocked %d hand-off attempts, want %d", got, want)
	}
}

// TestHandoffPeerCrashMidExchange: the peer dies while it holds a hand-off
// open. No reply byte has reached the client, so the entry node tells its
// failure detector and serves the client itself, a complete 200.
func TestHandoffPeerCrashMidExchange(t *testing.T) {
	c, err := Start(WithNodes(2), WithStore(testStore(8)), WithCacheMB(1),
		WithHealth(noHeartbeat()), WithRetry(chaosRetry()), WithServePenalty(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	pin(c, 4, 1, 0)
	peer := c.Node(1)

	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := testClient.Get(c.URLs()[0] + "/files/f/4")
		if err != nil {
			done <- result{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp, body, err}
	}()
	waitFor(t, 5*time.Second, "the hand-off never reached the peer", func() bool { return peer.Load() == 1 })
	if err := c.Stop(1); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("client saw %v; the crash should have been absorbed", r.err)
	}
	if r.resp.StatusCode != http.StatusOK || string(r.body) != "content-of-4" ||
		r.resp.Header.Get("X-Served-By") != "0" || r.resp.Header.Get("X-Forwarded-By") != "" {
		t.Fatalf("status %d, body %q, served by %q, forwarded by %q; want node 0's own complete reply",
			r.resp.StatusCode, r.body, r.resp.Header.Get("X-Served-By"), r.resp.Header.Get("X-Forwarded-By"))
	}
	s := c.Node(0).Snapshot()
	if s.Failovers != 1 || s.HandoffConns != 0 {
		t.Fatalf("failovers %d, channels still open %d; want 1, 0", s.Failovers, s.HandoffConns)
	}
	if c.Node(0).peerHealth(1) == PeerAlive {
		t.Fatal("the failure detector was not told")
	}
}

// TestHandoffStaleChannelRedials: a peer that restarted has closed the
// channels pooled towards it. The first hand-off afterwards finds its channel
// dead before any reply byte and redials, invisibly: no error, no retry, no
// word to the failure detector.
func TestHandoffStaleChannelRedials(t *testing.T) {
	c, err := Start(WithNodes(2), WithStore(testStore(8)), WithCacheMB(1), WithHealth(noHeartbeat()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	pin(c, 5, 1, 0)
	url := c.URLs()[0] + "/files/f/5"
	get(t, url)
	if err := c.Stop(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, body := get(t, url)
		if resp.StatusCode != http.StatusOK || string(body) != "content-of-5" || resp.Header.Get("X-Served-By") != "1" {
			t.Fatalf("after the restart: status %d, body %q, served by %q", resp.StatusCode, body, resp.Header.Get("X-Served-By"))
		}
	}
	s := c.Node(0).Snapshot()
	if s.HandoffDials != 2 || s.HandoffConns != 1 || s.Retries != 0 || s.Failovers != 0 {
		t.Fatalf("dials %d, channels %d, retries %d, failovers %d; want 2, 1, 0, 0", s.HandoffDials, s.HandoffConns, s.Retries, s.Failovers)
	}
	if c.Node(0).peerHealth(1) != PeerAlive {
		t.Fatal("a stale channel was held against the peer")
	}
}

// TestHandoffCutMidBody: a channel cut after the reply header has been
// relayed cannot be retried or failed over — the status line is on the
// wire. It surfaces as errProxyStarted and, at the client, as a short body.
func TestHandoffCutMidBody(t *testing.T) {
	// The peer: completes the upgrade, reads one frame, promises 1000 bytes,
	// sends 100 and hangs up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			br := bufio.NewReader(conn)
			if _, err := http.ReadRequest(br); err == nil {
				_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+handoffProto+"\r\n\r\n")
				if _, err := readFrame(br, 8); err == nil {
					hdr := binary.BigEndian.AppendUint64(nil, 1000)
					_, _ = conn.Write(append(hdr, make([]byte, 100)...))
				}
			}
			conn.Close()
		}
	}()

	cfg := defaultClusterConfig()
	cfg.store, cfg.health, cfg.retry = testStore(8), noHeartbeat(), chaosRetry()
	c := &Cluster{cfg: cfg, urls: []string{"", "http://" + ln.Addr().String()}}
	n := c.newNode(0)
	defer n.closeConns()
	n.state.applySet(SetUpdate{File: 1, Nodes: []int{1}, Version: 1})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	rec := httptest.NewRecorder()
	if err := n.proxyWithRetry(1, 1, rec); !errors.Is(err, errProxyStarted) {
		t.Fatalf("proxyWithRetry returned %v, want errProxyStarted", err)
	}
	if rec.Code != http.StatusOK || rec.Body.Len() >= 1000 {
		t.Fatalf("relayed status %d and %d bytes before the cut, want 200 and a short body", rec.Code, rec.Body.Len())
	}

	resp, err := testClient.Get(srv.URL + "/files/f/1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != 1000 || len(body) >= 1000 || err == nil {
		t.Fatalf("client saw status %d, Content-Length %d, %d bytes, error %v; want 200, 1000, a short body and a read error",
			resp.StatusCode, resp.ContentLength, len(body), err)
	}
	if s := n.Snapshot(); s.Failovers != 0 || s.Retries != 0 || s.HandoffConns != 0 {
		t.Fatalf("failovers %d, retries %d, channels open %d after two cut hand-offs; want 0, 0, 0", s.Failovers, s.Retries, s.HandoffConns)
	}
}

// TestHandoffHeaderParity: a local and a forwarded reply of the same file
// differ only in X-Forwarded-By, and neither is chunk-encoded, whichever side
// of net/http's buffer sizes the body falls on.
func TestHandoffHeaderParity(t *testing.T) {
	var files [][]byte
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		body := make([]byte, size)
		for i := range body {
			body[i] = byte('a' + i%26)
		}
		files = append(files, body)
	}
	c, err := Start(WithNodes(2), WithStore(NewMemStore(files)), WithCacheMB(1), WithHealth(noHeartbeat()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	for i, want := range files {
		pin(c, cache.FileID(i), 1, 0, 1)
		for entry, forwardedBy := range []string{"0", ""} {
			resp, body := get(t, c.URLs()[entry]+"/files/f/"+strconv.Itoa(i))
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("%d B file via node %d: status %d, %d bytes", len(want), entry, resp.StatusCode, len(body))
			}
			if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(want)) ||
				resp.Header.Get("Content-Length") != strconv.Itoa(len(want)) {
				t.Errorf("%d B file via node %d: Transfer-Encoding %v, Content-Length %q", len(want), entry, resp.TransferEncoding, resp.Header.Get("Content-Length"))
			}
			for key, value := range map[string]string{
				"Content-Type": "application/octet-stream", "X-Served-By": "1", "X-Forwarded-By": forwardedBy,
			} {
				if got := resp.Header.Get(key); got != value {
					t.Errorf("%d B file via node %d: %s %q, want %q", len(want), entry, key, got, value)
				}
			}
		}
	}
}

// TestShutdownLeavesNothing: a cluster that served traffic and shut down
// leaves no goroutine and no heap behind — no control connection parked in
// a shared pool, no hijacked channel, nothing that keeps a node's store
// reachable.
func TestShutdownLeavesNothing(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	goroutines, before := runtime.NumGoroutine(), heap()

	func() {
		tr := trace.MustGenerate(trace.GenSpec{
			Name: "leak", Files: 400, AvgFileKB: 16, Requests: 2000, AvgReqKB: 12, Alpha: 0.8, Seed: 3,
		})
		c, err := Start(WithNodes(4), WithStore(StoreFromTrace(tr)), WithCacheMB(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(c, tr, 4)
		if err != nil || res.Errors != 0 {
			t.Fatalf("replay: %v, %d errors", err, res.Errors)
		}
		if total := c.Totals(); total.Proxied == 0 || total.Served == 0 || total.HandoffConns == 0 {
			t.Fatalf("the 2,000 requests were not a mix: %+v", total)
		}
		start := time.Now()
		c.Shutdown()
		if took := time.Since(start); took > time.Second {
			t.Errorf("Shutdown took %v, want under 1 s", took)
		}
	}()

	// Gossip that was in flight at Shutdown fails against the closed
	// listeners and unwinds on its own; that takes a moment, not a timeout.
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		now, after := runtime.NumGoroutine(), heap()
		if now <= goroutines && after <= before+1<<20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the cluster left something behind: goroutines %d -> %d, heap %s -> %s", goroutines, now, mb(before), mb(after))
		}
	}
}

func mb(b uint64) string { return fmt.Sprintf("%.1f MB", float64(b)/(1<<20)) }

// TestShutdownWhileGossiping shuts clusters down with load gossip still in
// flight (delta 1: every load change broadcasts). A control message sent
// after a node closed its idle connections can leave a spare dial parked
// unused; the peer's server takes that for a new connection and waits out
// the whole shutdown deadline on it. Stopping a node therefore aborts its
// gossip first; without that about one shutdown in fifteen here takes 3 s.
func TestShutdownWhileGossiping(t *testing.T) {
	for round := 0; round < 25; round++ {
		c, err := Start(WithNodes(4), WithStore(testStore(64)), WithCacheMB(1),
			WithL2S(core.Options{T: 20, LowT: 10, BroadcastDelta: 1, ShrinkAfter: 60}))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 24; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					resp, err := testClient.Get(c.URLs()[i%4] + "/files/f/" + strconv.Itoa((i+k)%64))
					if err != nil {
						t.Error(err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(i)
		}
		wg.Wait()
		testClient.CloseIdleConnections() // or the spare dials parked here would do the same
		start := time.Now()
		c.Shutdown()
		if took := time.Since(start); took > time.Second {
			t.Fatalf("round %d: Shutdown took %v, want under 1 s", round, took)
		}
	}
}

// TestIdleHandoffChannelsHoldNoBuffer: opening k idle hand-off channels
// grows the post-GC heap by far less than k read buffers. An exchange
// borrows its buffer from the node's free list, and the peer's serving loop
// holds a frame-sized reader; when each channel kept its own 32 KB reader
// and the peer the HTTP server's state for it, 32 channels grew the heap by
// about 1.4 MB (44 KB each), now by under 70 KB.
func TestIdleHandoffChannelsHoldNoBuffer(t *testing.T) {
	const k = 32
	c, err := Start(WithNodes(2), WithStore(testStore(8)), WithCacheMB(1), WithHealth(noHeartbeat()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	n := c.Node(0)
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	for range k {
		pc, err := n.dialPeer(1)
		if err != nil {
			t.Fatal(err)
		}
		n.handoffs.pools[1].put(pc)
	}
	grown := heap() - before
	t.Logf("%d idle channels: heap grew %d B (%d B each)", k, grown, grown/k)
	if grown > k*peerBufSize/4 {
		t.Fatalf("%d idle channels grew the heap by %d B, more than a quarter of a %d B read buffer each", k, grown, peerBufSize)
	}
	// The channels still work: a hand-off borrows a buffer and gives it back.
	pin(c, 3, 1, 0, 1)
	if resp, body := get(t, c.URLs()[0]+"/files/f/3"); resp.Header.Get("X-Served-By") != "1" || string(body) != "content-of-3" {
		t.Fatalf("served by %q, body %q; want node 1, content-of-3", resp.Header.Get("X-Served-By"), body)
	}
	// The reply is flushed when the handler returns, after the exchange
	// gave its buffer back.
	n.handoffs.readers.mu.Lock()
	free := len(n.handoffs.readers.free)
	n.handoffs.readers.mu.Unlock()
	if s := n.Snapshot(); s.HandoffDials != k || free != 1 {
		t.Fatalf("%d dials, %d free read buffers after one hand-off over a warm pool; want %d, 1", s.HandoffDials, free, k)
	}
}

// TestExchangeRefusesStrayBytes: a reply followed by bytes no frame asked
// for leaves the channel out of step. The exchange relays the reply, then
// fails, so the channel is dropped rather than pooled with the next reply
// misread from those bytes; the borrowed buffer still goes back.
func TestExchangeRefusesStrayBytes(t *testing.T) {
	c, err := Start(WithNodes(1), WithStore(testStore(8)), WithCacheMB(1), WithHealth(noHeartbeat()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	n := c.Node(0)
	for _, stray := range []int{0, 1, 9} {
		entry, peer := net.Pipe()
		go func() {
			var req [frameLen]byte
			if _, err := io.ReadFull(peer, req[:]); err != nil {
				return
			}
			reply := binary.BigEndian.AppendUint64(nil, 5)
			reply = append(reply, "hello"...)
			_, _ = peer.Write(append(reply, make([]byte, stray)...))
		}()
		rec := httptest.NewRecorder()
		started, err := n.exchange(&peerConn{c: entry}, 0, 2, rec)
		entry.Close()
		peer.Close()
		if !started || rec.Body.String() != "hello" || (err != nil) != (stray > 0) {
			t.Fatalf("%d stray bytes: started %v, body %q, error %v", stray, started, rec.Body.String(), err)
		}
	}
	n.handoffs.readers.mu.Lock()
	defer n.handoffs.readers.mu.Unlock()
	if len(n.handoffs.readers.free) != 1 {
		t.Fatalf("%d free read buffers after three exchanges, one at a time; want 1", len(n.handoffs.readers.free))
	}
}
