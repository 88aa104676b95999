// Package runner is the sweep executor behind every figure: it fans
// independent server.Run simulations out across a worker pool while
// keeping results bit-identical to a sequential sweep.
//
// Determinism is by construction. Each job's RNG seed is derived with
// SplitMix64 from the pool's base seed and the job's stable key — never
// from goroutine scheduling order — and each simulation is a pure function
// of its (Config, Trace) pair, so the only thing parallelism changes is
// wall-clock time. Results are reassembled in submission order, and a
// Sequential escape hatch runs the identical code path on the caller's
// goroutine for debugging.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
)

// Job is one independent simulation in a sweep.
type Job struct {
	// Key is the job's stable identity within the sweep (e.g.
	// "figure7/l2s/n=8"). It labels progress and errors and, together
	// with the pool's base seed, determines the job's RNG seed, so a grid
	// point reproduces exactly no matter how the sweep is scheduled or
	// which subset of the grid is run.
	Key string

	// Config describes the grid point. If Config.Seed is zero the runner
	// fills it with the key-derived seed before running.
	Config server.Config

	// Trace drives the simulation. Traces are read-only during a run and
	// may be shared between jobs.
	Trace *trace.Trace
}

// Result is one job's outcome, reported in submission order.
type Result struct {
	Index  int    // position in the submitted job slice
	Key    string // the job's key
	Seed   int64  // the seed the job ran with
	Result server.Result
	Err    error
	// Elapsed is the job's wall-clock time. It is the only field that
	// depends on scheduling; comparisons of parallel versus sequential
	// sweeps should ignore it.
	Elapsed time.Duration
}

// Progress reports a completed job. Done counts completions so far (in
// completion order); callbacks are serialized by the pool, so handlers may
// touch shared state without locking.
type Progress struct {
	Done, Total int
	Job         Result
}

// Pool executes sweeps. The zero value runs jobs across GOMAXPROCS
// workers with base seed 0.
type Pool struct {
	// Workers is the number of concurrent simulations; values below 1
	// select GOMAXPROCS.
	Workers int

	// Sequential runs jobs one after another on the caller's goroutine —
	// the escape hatch for debugging and for apples-to-apples timing. It
	// produces bit-identical results to the parallel path.
	Sequential bool

	// BaseSeed perturbs every derived job seed; sweeps that must be
	// comparable across runs share a base seed.
	BaseSeed uint64

	// OnProgress, when non-nil, is called after each job completes. Calls
	// are serialized.
	OnProgress func(Progress)
}

// NewPool returns a pool with the given width; workers below 1 selects
// GOMAXPROCS and workers == 1 selects the sequential path.
func NewPool(workers int) *Pool {
	return &Pool{Workers: workers, Sequential: workers == 1}
}

// Run executes every job and returns their results in submission order.
// Job failures (including panics out of the model layers) are isolated in
// the per-job Err fields; Run itself does not fail.
func (p *Pool) Run(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}

	var mu sync.Mutex // serializes progress callbacks and the done counter
	done := 0
	finish := func(i int, r Result) {
		results[i] = r
		if p.OnProgress == nil {
			return
		}
		mu.Lock()
		done++
		p.OnProgress(Progress{Done: done, Total: len(jobs), Job: r})
		mu.Unlock()
	}

	if p.Sequential {
		for i, job := range jobs {
			finish(i, p.runJob(i, job))
		}
		return results
	}

	workers := p.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				finish(i, p.runJob(i, jobs[i]))
			}
		}()
	}
	for i := range jobs {
		indices <- i
	}
	close(indices)
	wg.Wait()
	return results
}

// runJob executes one job with its derived seed and timing.
func (p *Pool) runJob(i int, job Job) Result {
	cfg := job.Config
	if cfg.Seed == 0 {
		cfg.Seed = Seed(p.BaseSeed, job.Key)
	}
	out := Result{Index: i, Key: job.Key, Seed: cfg.Seed}
	start := time.Now()
	out.Result, out.Err = run(cfg, job.Trace)
	out.Elapsed = time.Since(start)
	return out
}

// run guards one simulation: server.Run already converts panics in the
// model and in policy construction to errors, and this recover catches
// anything else that unwinds, so a sweep does not die with hundreds of
// sibling jobs in flight.
func run(cfg server.Config, tr *trace.Trace) (res server.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = server.Result{}, fmt.Errorf("runner: job panicked: %v", r)
		}
	}()
	if tr == nil {
		return server.Result{}, fmt.Errorf("runner: job has no trace")
	}
	return server.Run(cfg, tr)
}

// Seed derives a job seed from a base seed and a stable key: the key is
// folded with FNV-1a and the result finalized with the SplitMix64 mixer,
// so every grid point gets a well-spread, order-independent seed. The
// result is never zero (zero means "unseeded" to server.Config).
func Seed(base uint64, key string) int64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	x := base + h + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	seed := int64(x >> 1) // keep it positive so it reads well in logs
	if seed == 0 {
		seed = 1
	}
	return seed
}
