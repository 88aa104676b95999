package native

import (
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestStartValidation(t *testing.T) {
	st := testStore(4)
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"no store", []Option{WithNodes(2)}, "store"},
		{"zero nodes", []Option{WithNodes(0), WithStore(st)}, "at least one node"},
		{"nil store", []Option{WithStore(nil)}, "non-nil store"},
		{"bad cache", []Option{WithStore(st), WithCacheMB(0)}, "cache"},
		{"bad cache mb", []Option{WithStore(st), WithCacheMB(-1)}, "cache"},
		{"inverted thresholds", []Option{WithStore(st), WithL2S(core.Options{T: 5, LowT: 9, BroadcastDelta: 4})}, "thresholds"},
		{"zero delta", []Option{WithStore(st), WithL2S(core.Options{T: 20, LowT: 10})}, "BroadcastDelta"},
		{"negative shrink", []Option{WithStore(st), WithL2S(core.Options{T: 20, LowT: 10, BroadcastDelta: 4, ShrinkAfter: -1})}, "ShrinkAfter"},
		{"bad l2s", []Option{WithStore(st), WithL2S(core.Options{T: 0})}, "thresholds"},
		{"oracle", []Option{WithStore(st), WithL2S(core.Options{T: 20, LowT: 10, BroadcastDelta: 4, Oracle: true})}, "oracle"},
		{"negative miss", []Option{WithStore(st), WithMissPenalty(-time.Second)}, "miss penalty"},
		{"negative serve", []Option{WithStore(st), WithServePenalty(-time.Second)}, "serve penalty"},
		{"bad heartbeat", []Option{WithStore(st), WithHealth(HealthOptions{})}, "heartbeat"},
		{"bad dead budget", []Option{WithStore(st), WithHealth(HealthOptions{
			HeartbeatEvery: time.Second, SyncEvery: time.Second, SuspectAfter: 3, DeadAfter: 1,
		})}, "DeadAfter"},
		{"bad retry", []Option{WithStore(st), WithRetry(RetryPolicy{Attempts: 0})}, "attempts"},
		{"bad backoff", []Option{WithStore(st), WithRetry(RetryPolicy{
			Attempts: 2, Base: time.Second, Max: time.Millisecond,
		})}, "max backoff"},
		{"nil faults", []Option{WithStore(st), WithFaults(nil)}, "injector"},
		{"zero seed", []Option{WithStore(st), WithSeed(0)}, "seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Start(tc.opts...)
			if err == nil {
				c.Shutdown()
				t.Fatalf("Start accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestStartFunctionalOptions(t *testing.T) {
	c, err := Start(
		WithNodes(2),
		WithStore(testStore(8)),
		WithCacheMB(1),
		// t = T and a zero shrink window are valid L2S options, as in the
		// simulator.
		WithL2S(core.Options{T: 20, LowT: 20, BroadcastDelta: 4}),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	resp, body := get(t, c.URLs()[0]+"/files/f/3")
	if resp.StatusCode != http.StatusOK || string(body) != "content-of-3" {
		t.Fatalf("got %d %q", resp.StatusCode, body)
	}
}

// TestStartMinimalOptions keeps the minimal entry point honest: a cluster
// built from just a size and a store must work with defaults applied.
func TestStartMinimalOptions(t *testing.T) {
	c, err := Start(WithNodes(2), WithStore(testStore(8)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	resp, body := get(t, c.URLs()[1]+"/files/f/1")
	if resp.StatusCode != http.StatusOK || string(body) != "content-of-1" {
		t.Fatalf("shim cluster misserved: %d %q", resp.StatusCode, body)
	}
}

func TestFaultInjectorValidation(t *testing.T) {
	fi := NewFaultInjector(1)
	if err := fi.SetDropRate(1.5); err == nil {
		t.Fatal("drop rate > 1 accepted")
	}
	nan := math.NaN()
	if fi.SetDropRate(nan) == nil || fi.SetDelay(time.Second, nan) == nil || fi.SetDupRate(nan) == nil {
		t.Fatal("a NaN rate accepted")
	}
	if err := fi.SetDelay(-time.Second, 0.5); err == nil {
		t.Fatal("negative delay accepted")
	}
	if err := fi.SetDelay(time.Second, 2); err == nil {
		t.Fatal("delay rate > 1 accepted")
	}
	if err := fi.SetDupRate(-0.1); err == nil {
		t.Fatal("negative dup rate accepted")
	}
}

// TestFaultInjectorKillRevive exercises the transport-seam kill: traffic to
// a killed node fails at every wrapped transport without the node actually
// going down, and Revive restores it.
func TestFaultInjectorKillRevive(t *testing.T) {
	fi := NewFaultInjector(1)
	c, err := Start(
		WithNodes(2),
		WithStore(testStore(8)),
		WithCacheMB(1),
		WithFaults(fi),
		WithHealth(chaosHealth()),
		WithRetry(chaosRetry()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	fi.kill(1)
	// Node 0's hand-offs and gossip to node 1 now fail; requests entering
	// node 0 must still succeed via failover.
	c.Node(0).state.applySet(SetUpdate{File: 2, Nodes: []int{1}, Version: 1})
	resp, body := get(t, c.URLs()[0]+"/files/f/2")
	if resp.StatusCode != http.StatusOK || string(body) != "content-of-2" {
		t.Fatalf("request failed under injected kill: %d %q", resp.StatusCode, body)
	}
	if fi.Stats().Blocked == 0 {
		t.Fatal("kill never blocked a request")
	}
	waitFor(t, 5*time.Second, "node 0 never marked killed peer dead", func() bool {
		return c.Node(0).peerHealth(1) == PeerDead
	})

	fi.revive(1)
	waitFor(t, 5*time.Second, "revived peer never marked alive", func() bool {
		return c.Node(0).peerHealth(1) == PeerAlive
	})
}
