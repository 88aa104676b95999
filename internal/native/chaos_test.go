package native

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Fast failure detection + tight retry budget so chaos tests converge in
// well under a second of wall clock per phase.
func chaosHealth() HealthOptions {
	return HealthOptions{
		HeartbeatEvery: 20 * time.Millisecond,
		SyncEvery:      40 * time.Millisecond,
		SuspectAfter:   1,
		DeadAfter:      2,
	}
}

func chaosRetry() RetryPolicy {
	return RetryPolicy{Attempts: 2, Base: 2 * time.Millisecond, Max: 10 * time.Millisecond}
}

// setsExclude reports whether every server set known to the node avoids the
// given member, returning an offending file for diagnostics.
func setsExclude(n *Node, member int) (bool, cache.FileID) {
	for f := range cache.FileID(n.cfg.store.Len()) {
		if slices.Contains(n.serverSet(f), member) {
			return false, f
		}
	}
	return true, 0
}

// TestChaosKillNodeMidReplay is the acceptance drill: 1 of 4 nodes is
// crashed abruptly in the middle of a trace replay while 10% of gossip is
// being dropped on a seeded schedule. The replay must finish with zero
// client-visible errors, and at quiesce every survivor must consider the
// dead node dead and hold server sets naming live nodes only.
func TestChaosKillNodeMidReplay(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "chaos", Files: 120, AvgFileKB: 4, Requests: 4000,
		AvgReqKB: 3, Alpha: 1, Seed: 7,
	})
	fi := NewFaultInjector(42)
	if err := fi.SetDropRate(0.10); err != nil {
		t.Fatal(err)
	}
	c, err := Start(
		WithNodes(4),
		WithStore(StoreFromTrace(tr)),
		WithCacheMB(4),
		WithHealth(chaosHealth()),
		WithRetry(chaosRetry()),
		WithFaults(fi),
		WithSeed(7),
		WithServePenalty(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	const victim = 3
	done := make(chan struct{})
	var res ReplayResult
	var rerr error
	go func() {
		defer close(done)
		res, rerr = Replay(c, tr, 12)
	}()

	// Crash the victim while the replay is in full flight.
	time.Sleep(120 * time.Millisecond)
	if err := c.Stop(victim); err != nil {
		t.Error(err)
	}
	<-done
	if rerr != nil {
		t.Fatal(rerr)
	}
	if res.Errors != 0 {
		t.Fatalf("%d client-visible errors after node kill (want 0; %d completed, %d retries)",
			res.Errors, res.Completed, res.Retries)
	}
	if res.Completed != uint64(tr.NumRequests()) {
		t.Fatalf("completed %d of %d", res.Completed, tr.NumRequests())
	}
	if fi.Stats().Dropped == 0 {
		t.Fatal("fault schedule never dropped a message at 10% drop rate")
	}

	// Quiesce: every survivor marks the victim dead and repairs its sets.
	deadline := time.Now().Add(8 * time.Second)
	for {
		converged := true
		var why string
		for i := 0; i < c.Len() && converged; i++ {
			if i == victim {
				continue
			}
			n := c.Node(i)
			if n.peerHealth(victim) != PeerDead {
				converged, why = false, fmt.Sprintf("node %d has not marked %d dead", i, victim)
				continue
			}
			if ok, f := setsExclude(n, victim); !ok {
				converged, why = false, fmt.Sprintf("node %d still routes file %d to dead node %d", i, f, victim)
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reconverged: %s", why)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Fresh traffic is served by survivors only.
	for i := 0; i < 20; i++ {
		resp, err := testClient.Get(c.Node(0).peers[0] + fmt.Sprintf("/files/f/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if by := resp.Header.Get("X-Served-By"); by == fmt.Sprint(victim) {
			t.Fatalf("dead node %d served a post-quiesce request", victim)
		}
	}
}

// TestChaosGossipDropDelayConverges drives traffic under a seeded schedule
// of dropped, delayed, and duplicated control messages, then stops the
// faults and asserts the cluster's replicated state converges: every load
// view drains to zero and every server-set replica agrees across nodes.
func TestChaosGossipDropDelayConverges(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "drops", Files: 64, AvgFileKB: 4, Requests: 900,
		AvgReqKB: 3, Alpha: 1, Seed: 11,
	})
	fi := NewFaultInjector(7)
	if err := fi.SetDropRate(0.25); err != nil {
		t.Fatal(err)
	}
	if err := fi.SetDelay(3*time.Millisecond, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := fi.SetDupRate(0.1); err != nil {
		t.Fatal(err)
	}
	c, err := Start(
		WithNodes(3),
		WithStore(StoreFromTrace(tr)),
		WithCacheMB(2),
		WithHealth(chaosHealth()),
		WithRetry(chaosRetry()),
		WithFaults(fi),
		WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	res, err := Replay(c, tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d client-visible errors under gossip faults (want 0)", res.Errors)
	}
	st := fi.Stats()
	if st.Dropped == 0 || st.Delayed == 0 {
		t.Fatalf("fault schedule barely fired: %+v", st)
	}

	// Faults cease; the cluster must reconverge on its own.
	fi.Stop()
	deadline := time.Now().Add(8 * time.Second)
	for {
		why := converged(c)
		if why == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state never converged after faults stopped: %s", why)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// converged checks full state agreement: all peers alive everywhere, every
// load view zero, and identical server-set replicas on every node. It
// returns "" on convergence, else a diagnostic.
func converged(c *Cluster) string {
	for i := 0; i < c.Len(); i++ {
		n := c.Node(i)
		for j := 0; j < c.Len(); j++ {
			if i == j {
				continue
			}
			if n.peerHealth(j) == PeerDead {
				return fmt.Sprintf("node %d still believes %d dead", i, j)
			}
			if l := n.state.viewLoad(j); l != 0 {
				return fmt.Sprintf("node %d sees load %d at idle node %d", i, l, j)
			}
		}
	}
	for f := range cache.FileID(c.cfg.store.Len()) {
		ref := c.Node(0).serverSet(f)
		for i := 1; i < c.Len(); i++ {
			if got := c.Node(i).serverSet(f); !slices.Equal(got, ref) {
				return fmt.Sprintf("set of file %d differs: node 0 %v vs node %d %v", f, ref, i, got)
			}
		}
	}
	return ""
}

// TestChaosCrashRecovery kills a node, lets the cluster reconverge, then
// restarts it and asserts the rejoin: peers mark it alive again, and
// anti-entropy rebuilds the newcomer's server-set replica so it routes
// requests like everyone else.
func TestChaosCrashRecovery(t *testing.T) {
	c, err := Start(
		WithNodes(3),
		WithStore(testStore(32)),
		WithCacheMB(1),
		WithHealth(chaosHealth()),
		WithRetry(chaosRetry()),
		WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	// Seed some server sets.
	for i := 0; i < 32; i++ {
		get(t, c.URLs()[i%3]+fmt.Sprintf("/files/f/%d", i))
	}

	const victim = 2
	if err := c.Stop(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "survivors never marked the victim dead", func() bool {
		return c.Node(0).peerHealth(victim) == PeerDead && c.Node(1).peerHealth(victim) == PeerDead
	})

	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "rejoined node never marked alive", func() bool {
		return c.Node(0).peerHealth(victim) == PeerAlive && c.Node(1).peerHealth(victim) == PeerAlive
	})
	// Anti-entropy must hand the newcomer a server-set replica.
	waitFor(t, 5*time.Second, "rejoined node never received state via anti-entropy", func() bool {
		for i := 0; i < 32; i++ {
			if len(c.Node(victim).serverSet(cache.FileID(i))) > 0 {
				return true
			}
		}
		return false
	})
	// And the newcomer serves traffic correctly.
	resp, body := get(t, c.URLs()[victim]+"/files/f/5")
	if resp.StatusCode != http.StatusOK || string(body) != "content-of-5" {
		t.Fatalf("rejoined node misserved: %d %q", resp.StatusCode, body)
	}
}

func waitFor(t *testing.T, d time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
