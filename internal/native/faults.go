package native

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault-injection errors, distinguishable in logs and tests.
var (
	errFaultDropped = errors.New("faultinject: control message dropped")
	errFaultKilled  = errors.New("faultinject: destination node killed")
)

// FaultInjector is a deterministic network-fault layer with two hooks into
// every node of a cluster (see WithFaults): it wraps the HTTP transport that
// carries the node's /control/* messages and, on a seeded schedule, drops,
// delays, or duplicates them; and it blackholes traffic to killed nodes,
// on that transport and — asked before each exchange — on the hand-off
// channel. The data plane only sees kills, mirroring the paper's concern
// with gossip robustness.
//
// All knobs are safe to flip while the cluster is running, which is how
// chaos tests start and stop fault schedules.
type FaultInjector struct {
	rng *lockedRand

	mu        sync.Mutex
	dropRate  float64
	delayRate float64
	maxDelay  time.Duration
	dupRate   float64
	killed    map[int]bool
	hosts     map[string]int // host:port -> node id

	dropped    atomic.Uint64
	delayed    atomic.Uint64
	duplicated atomic.Uint64
	blocked    atomic.Uint64
}

// NewFaultInjector returns an injector whose schedule is driven by the
// given seed. With no knobs set it is transparent.
func NewFaultInjector(seed int64) *FaultInjector {
	return &FaultInjector{
		rng:    newLockedRand(seed),
		killed: make(map[int]bool),
		hosts:  make(map[string]int),
	}
}

// SetDropRate drops the given fraction of control messages (0..1).
func (f *FaultInjector) SetDropRate(p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("native: drop rate must be in [0,1], got %g", p)
	}
	f.mu.Lock()
	f.dropRate = p
	f.mu.Unlock()
	return nil
}

// SetDelay delays the given fraction of control messages by a uniformly
// random duration in (0, max].
func (f *FaultInjector) SetDelay(max time.Duration, rate float64) error {
	if max < 0 {
		return fmt.Errorf("native: delay must be >= 0, got %v", max)
	}
	if !(rate >= 0 && rate <= 1) {
		return fmt.Errorf("native: delay rate must be in [0,1], got %g", rate)
	}
	f.mu.Lock()
	f.maxDelay, f.delayRate = max, rate
	f.mu.Unlock()
	return nil
}

// SetDupRate duplicates the given fraction of control messages: the copy is
// delivered first, then the original. Control handlers are idempotent, so
// duplication must be invisible.
func (f *FaultInjector) SetDupRate(p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("native: dup rate must be in [0,1], got %g", p)
	}
	f.mu.Lock()
	f.dupRate = p
	f.mu.Unlock()
	return nil
}

// kill blackholes all injected traffic to the node (connection attempts
// fail immediately), simulating a crash at the transport seam.
func (f *FaultInjector) kill(node int) {
	f.mu.Lock()
	f.killed[node] = true
	f.mu.Unlock()
}

// revive undoes kill.
func (f *FaultInjector) revive(node int) {
	f.mu.Lock()
	delete(f.killed, node)
	f.mu.Unlock()
}

// Stop clears every fault: rates to zero, killed set emptied. Counters are
// preserved.
func (f *FaultInjector) Stop() {
	f.mu.Lock()
	f.dropRate, f.delayRate, f.dupRate = 0, 0, 0
	f.maxDelay = 0
	f.killed = make(map[int]bool)
	f.mu.Unlock()
}

// FaultStats counts the faults injected so far.
type FaultStats struct {
	Dropped    uint64 `json:"dropped"`
	Delayed    uint64 `json:"delayed"`
	Duplicated uint64 `json:"duplicated"`
	Blocked    uint64 `json:"blocked"` // requests refused because the target was killed
}

// Stats returns the injected-fault counters.
func (f *FaultInjector) Stats() FaultStats {
	return FaultStats{
		Dropped:    f.dropped.Load(),
		Delayed:    f.delayed.Load(),
		Duplicated: f.duplicated.Load(),
		Blocked:    f.blocked.Load(),
	}
}

// register maps node base URLs to ids so the injector can tell which node
// a request targets. The cluster calls this at start (and again on
// restart, which reuses the address).
func (f *FaultInjector) register(urls []string) {
	f.mu.Lock()
	for id, u := range urls {
		f.hosts[strings.TrimPrefix(u, "http://")] = id
	}
	f.mu.Unlock()
}

// transport wraps base with the fault schedule.
func (f *FaultInjector) transport(base http.RoundTripper) http.RoundTripper {
	return &faultTransport{f: f, base: base}
}

// refuses is the hand-off channel's hook: it reports whether the node is
// killed, counting the refusal like a blocked request.
func (f *FaultInjector) refuses(node int) bool {
	f.mu.Lock()
	killed := f.killed[node]
	f.mu.Unlock()
	if killed {
		f.blocked.Add(1)
	}
	return killed
}

type faultTransport struct {
	f    *FaultInjector
	base http.RoundTripper
}

// plan is one message's drawn fate.
type plan struct {
	kill  bool
	drop  bool
	dup   bool
	delay time.Duration
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	p := t.f.draw(req)
	if p.kill {
		t.f.blocked.Add(1)
		return nil, errFaultKilled
	}
	if p.drop {
		t.f.dropped.Add(1)
		return nil, errFaultDropped
	}
	if p.delay > 0 {
		t.f.delayed.Add(1)
		time.Sleep(p.delay)
	}
	if p.dup {
		t.f.duplicated.Add(1)
		t.sendCopy(req)
	}
	return t.base.RoundTrip(req)
}

// draw rolls the fault schedule for one request under the injector lock.
func (f *FaultInjector) draw(req *http.Request) plan {
	var p plan
	f.mu.Lock()
	if id, known := f.hosts[req.URL.Host]; known && f.killed[id] {
		f.mu.Unlock()
		p.kill = true
		return p
	}
	control := strings.HasPrefix(req.URL.Path, "/control/")
	drop, delayRate, maxDelay, dup := f.dropRate, f.delayRate, f.maxDelay, f.dupRate
	f.mu.Unlock()
	if !control {
		return p
	}
	if drop > 0 && f.rng.Float64() < drop {
		p.drop = true
		return p
	}
	if delayRate > 0 && maxDelay > 0 && f.rng.Float64() < delayRate {
		p.delay = time.Duration(f.rng.Int63n(int64(maxDelay))) + 1
	}
	if dup > 0 && f.rng.Float64() < dup {
		p.dup = true
	}
	return p
}

// sendCopy synchronously delivers a duplicate of the request, discarding
// the response; failures of the copy are silent, as with real duplicated
// datagrams.
func (t *faultTransport) sendCopy(req *http.Request) {
	clone := req.Clone(req.Context())
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return
		}
		clone.Body = body
	}
	resp, err := t.base.RoundTrip(clone)
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
