package runner

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/trace"
)

// test-boom is a policy whose construction panics.
func init() {
	policy.Register("test-boom", func(policy.Env, policy.Options) (policy.Distributor, error) {
		panic("boom")
	})
}

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	return trace.MustGenerate(trace.GenSpec{
		Name: "runner", Files: 600, AvgFileKB: 8, Requests: 12000,
		AvgReqKB: 6, Alpha: 0.9, LocalityP: 0.3, Seed: 11, Clients: 400,
	})
}

// grid builds a sweep that exercises every seeded code path: closed-loop,
// open-loop Poisson arrivals, and persistent connections, across systems
// and cluster sizes.
func grid(tr *trace.Trace) []Job {
	var jobs []Job
	for _, sys := range []server.System{server.Traditional, server.LARDServer, server.L2SServer} {
		for _, n := range []int{1, 4, 8} {
			jobs = append(jobs, Job{
				Key:    fmt.Sprintf("%s/n=%d", sys, n),
				Config: server.NewConfig(sys, n),
				Trace:  tr,
			})
		}
	}
	jobs = append(jobs,
		Job{
			Key:    "openloop/l2s/n=4",
			Config: server.NewConfig(server.L2SServer, 4, server.WithArrivalRate(1500)),
			Trace:  tr,
		},
		Job{
			Key:    "persistent/lard/n=4",
			Config: server.NewConfig(server.LARDServer, 4, server.WithPersistent(7)),
			Trace:  tr,
		},
		Job{
			Key:    "policy/cached-dns/n=8",
			Config: server.NewConfig(server.CustomServer, 8, server.WithPolicy("cached-dns")),
			Trace:  tr,
		},
	)
	return jobs
}

// TestParallelMatchesSequential is the determinism contract: an 8-worker
// sweep and a sequential sweep over the same grid produce identical
// results, field for field (wall-clock timing aside).
func TestParallelMatchesSequential(t *testing.T) {
	tr := testTrace(t)
	jobs := grid(tr)

	seq := (&Pool{Sequential: true}).Run(jobs)
	par := (&Pool{Workers: 8}).Run(jobs)

	if len(seq) != len(jobs) || len(par) != len(jobs) {
		t.Fatalf("got %d sequential and %d parallel results for %d jobs", len(seq), len(par), len(jobs))
	}
	for i := range jobs {
		s, p := seq[i], par[i]
		s.Elapsed, p.Elapsed = 0, 0
		if !reflect.DeepEqual(s, p) {
			t.Errorf("job %q: parallel result diverges from sequential\nseq: %+v\npar: %+v", jobs[i].Key, s, p)
		}
		if s.Err != nil {
			t.Errorf("job %q failed: %v", jobs[i].Key, s.Err)
		}
		if s.Index != i || s.Key != jobs[i].Key {
			t.Errorf("job %d reassembled out of submission order: %+v", i, s)
		}
	}
}

// TestProgressCallbacks checks that overlapping completions deliver
// serialized, monotonically counted progress (run under -race this also
// proves the callback needs no caller-side locking).
func TestProgressCallbacks(t *testing.T) {
	tr := testTrace(t)
	jobs := grid(tr)

	seen := 0
	keys := make(map[string]bool)
	pool := &Pool{
		Workers: 8,
		OnProgress: func(p Progress) {
			seen++ // unsynchronized on purpose: the pool must serialize
			if p.Done != seen {
				t.Errorf("progress out of order: done=%d after %d callbacks", p.Done, seen)
			}
			if p.Total != len(jobs) {
				t.Errorf("progress total = %d, want %d", p.Total, len(jobs))
			}
			keys[p.Job.Key] = true
		},
	}
	pool.Run(jobs)
	if seen != len(jobs) {
		t.Fatalf("got %d progress callbacks for %d jobs", seen, len(jobs))
	}
	for _, j := range jobs {
		if !keys[j.Key] {
			t.Errorf("no progress callback for %q", j.Key)
		}
	}
}

// TestBadJobsAreIsolated mixes invalid grid points into a sweep: each
// fails with its own error while every sibling still completes.
func TestBadJobsAreIsolated(t *testing.T) {
	tr := testTrace(t)
	jobs := []Job{
		{Key: "good", Config: server.NewConfig(server.L2SServer, 4), Trace: tr},
		{Key: "no-nodes", Config: server.NewConfig(server.L2SServer, 0), Trace: tr},
		{Key: "bad-policy", Config: server.NewConfig(server.CustomServer, 4, server.WithPolicy("nope")), Trace: tr},
		{Key: "no-trace", Config: server.NewConfig(server.L2SServer, 4)},
		{Key: "panicky", Config: server.NewConfig(server.CustomServer, 4, server.WithPolicy("test-boom")), Trace: tr},
		{Key: "also-good", Config: server.NewConfig(server.Traditional, 2), Trace: tr},
	}
	results := (&Pool{Workers: 4}).Run(jobs)

	for _, key := range []string{"good", "also-good"} {
		for _, r := range results {
			if r.Key == key && r.Err != nil {
				t.Errorf("%s: unexpected error %v", key, r.Err)
			}
		}
	}
	wantErr := map[string]string{
		"no-nodes":   "at least one node",
		"bad-policy": "valid:",
		"no-trace":   "no trace",
		"panicky":    "boom",
	}
	for _, r := range results {
		want, ok := wantErr[r.Key]
		if !ok {
			continue
		}
		if r.Err == nil || !strings.Contains(r.Err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %q", r.Key, r.Err, want)
		}
		if r.Err != nil && !reflect.DeepEqual(r.Result, server.Result{}) {
			t.Errorf("%s: failed job carries a non-zero result", r.Key)
		}
	}
}

// TestSeedDerivation pins the seed contract: stable per (base, key),
// spread across keys, never zero, and independent of sweep composition.
func TestSeedDerivation(t *testing.T) {
	if Seed(0, "a") != Seed(0, "a") {
		t.Error("seed not deterministic")
	}
	if Seed(0, "a") == Seed(0, "b") {
		t.Error("distinct keys share a seed")
	}
	if Seed(0, "a") == Seed(1, "a") {
		t.Error("distinct base seeds share a job seed")
	}
	if Seed(0, "") == 0 || Seed(0, "a") == 0 {
		t.Error("derived seed must never be zero")
	}

	// A job's seed must not depend on where it sits in the grid.
	tr := testTrace(t)
	job := Job{Key: "pinned", Config: server.NewConfig(server.L2SServer, 2), Trace: tr}
	alone := (&Pool{Sequential: true}).Run([]Job{job})
	inGrid := (&Pool{Workers: 4}).Run(append(grid(tr), job))
	if alone[0].Seed != inGrid[len(inGrid)-1].Seed {
		t.Errorf("seed depends on grid composition: %d vs %d", alone[0].Seed, inGrid[len(inGrid)-1].Seed)
	}
}

// TestExplicitSeedWins: a caller-set Config.Seed is never overridden.
func TestExplicitSeedWins(t *testing.T) {
	tr := testTrace(t)
	job := Job{
		Key:    "seeded",
		Config: server.NewConfig(server.L2SServer, 2, server.WithSeed(42)),
		Trace:  tr,
	}
	r := (&Pool{Sequential: true}).Run([]Job{job})[0]
	if r.Seed != 42 {
		t.Fatalf("explicit seed overridden: got %d", r.Seed)
	}
}

func TestEmptySweep(t *testing.T) {
	if got := NewPool(0).Run(nil); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
}
