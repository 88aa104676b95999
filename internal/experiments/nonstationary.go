package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cache"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/trace"
)

// The non-stationary studies ask what the paper's saturation methodology
// could not: how the distribution policies behave when the workload itself
// moves — shot-noise popularity churn (every document's popularity decays
// while new documents arrive), an abrupt hot-set rotation, a sinusoidal
// diurnal load profile driven open loop, and a flash crowd concentrating a
// large traffic fraction on one cold file.

// nonstationaryPolicies are the contenders of both studies: the paper's
// three systems plus the consistent-hashing family of PR 8.
var nonstationaryPolicies = []string{"traditional", "lard", "l2s", "chash", "chash-bounded"}

// ChurnRow is one policy's line of the churn study: the usual comparison
// columns on the shot-noise trace, plus the adaptation lag after an abrupt
// hot-set rotation — the simulated seconds between the rotation cratering
// the cluster hit rate and the hit rate recovering to 90% of its
// pre-rotation mean.
type ChurnRow struct {
	Row      PolicyRow
	AdaptLag float64
}

// ChurnStudy runs the policy comparison on a shot-noise churned workload,
// measures per-policy adaptation lag after a hot-set rotation, and drives a
// diurnal open-loop day through the piecewise arrival schedule. scale
// scales request counts like the figure experiments (1 = full size).
func ChurnStudy(p *runner.Pool, scale float64) ([]ChurnRow, string, error) {
	churnTr, err := trace.Generate(trace.GenSpec{
		Name: "churn", Mode: trace.ModeChurn,
		Files: 12000, AvgFileKB: 16, Requests: reqCount(600_000, scale),
		Horizon: 300, DocLifetime: 12, Seed: 41,
	})
	if err != nil {
		return nil, "", err
	}

	// Phase 1: the comparison table at saturation on the churned trace.
	jobs := make([]runner.Job, len(nonstationaryPolicies))
	for i, name := range nonstationaryPolicies {
		jobs[i] = runner.Job{
			Key: "churn/" + name,
			Config: server.NewConfig(server.CustomServer, 8,
				server.WithPolicy(name), server.WithSeed(5)),
			Trace: churnTr,
		}
	}
	table, err := runRows(p, jobs, func(i int, r server.Result) string { return nonstationaryPolicies[i] })
	if err != nil {
		return nil, "", err
	}

	// Phase 2: adaptation lag after an abrupt rotation. Each job gets its
	// own series recorder (a Series must not be shared across parallel
	// runs); the lag is read off the recorded cluster hit-rate timeline.
	// The rotation catalog (24000 files x ~16KB per half, ~375MB) exceeds
	// the 8-node aggregate cache, so the rotation genuinely craters the
	// cluster hit rate rather than being absorbed by spare capacity.
	rotTr, err := rotationTrace(24000, reqCount(400_000, scale), 47)
	if err != nil {
		return nil, "", err
	}
	recs := make([]*obs.Series, len(nonstationaryPolicies))
	rotJobs := make([]runner.Job, len(nonstationaryPolicies))
	for i, name := range nonstationaryPolicies {
		recs[i] = obs.NewSeries(0.1)
		rotJobs[i] = runner.Job{
			Key: "rotate/" + name,
			Config: server.NewConfig(server.CustomServer, 8,
				server.WithPolicy(name), server.WithSeed(5),
				server.WithWarmFraction(0.1), server.WithSeries(recs[i])),
			Trace: rotTr,
		}
	}
	rows := make([]ChurnRow, len(nonstationaryPolicies))
	for i, jr := range p.Run(rotJobs) {
		if jr.Err != nil {
			return nil, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		rows[i] = ChurnRow{Row: table[i], AdaptLag: adaptationLag(recs[i])}
	}

	// Phase 3: a diurnal day, open loop — the offered rate follows the
	// sinusoidal schedule and latency is true client-perceived time.
	diurnalSpec := trace.GenSpec{
		Name: "diurnal", Mode: trace.ModeDiurnal,
		Files: 8000, AvgFileKB: 16, Requests: reqCount(400_000, scale),
		AvgReqKB: 12, Alpha: 1.0, LocalityP: 0.2,
		DiurnalAmp: 0.6, DiurnalPeriods: 2, Seed: 49,
	}
	diurnalTr, err := trace.Generate(diurnalSpec)
	if err != nil {
		return nil, "", err
	}
	sched := server.DiurnalSchedule(2000, diurnalSpec.DiurnalAmp, 30, 12)
	dPolicies := []string{"lard", "l2s"}
	dJobs := make([]runner.Job, len(dPolicies))
	for i, name := range dPolicies {
		dJobs[i] = runner.Job{
			Key: "diurnal/" + name,
			Config: server.NewConfig(server.CustomServer, 16,
				server.WithPolicy(name), server.WithSeed(5),
				server.WithArrivalSchedule(sched)),
			Trace: diurnalTr,
		}
	}
	dResults := p.Run(dJobs)

	var b strings.Builder
	fmt.Fprintf(&b, "shot-noise churn on %s (%d docs realized, %d requests): policies at saturation\n",
		churnTr.Name, len(churnTr.Sizes), len(churnTr.Requests))
	fmt.Fprintf(&b, "  %-14s %10s %8s %8s %10s %12s\n",
		"policy", "req/s", "miss%", "fwd%", "imbalance", "adapt-lag s")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %10.0f %8.1f %8.1f %10.2f %12.1f\n",
			r.Row.Policy, r.Row.Throughput, r.Row.MissRate*100,
			r.Row.Forwarded*100, r.Row.Imbalance, r.AdaptLag)
	}
	fmt.Fprintf(&b, "\ndiurnal open loop (mean 2000 req/s, amplitude %.0f%%, 16 nodes)\n",
		diurnalSpec.DiurnalAmp*100)
	fmt.Fprintf(&b, "  %-14s %10s %12s %12s\n", "policy", "req/s", "mean ms", "p99 ms")
	for i, jr := range dResults {
		if jr.Err != nil {
			return nil, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		fmt.Fprintf(&b, "  %-14s %10.0f %12.2f %12.2f\n", dPolicies[i],
			jr.Result.Throughput, jr.Result.LatencyMean*1000, jr.Result.LatencyP99*1000)
	}
	return rows, b.String(), nil
}

// FlashRow is one policy's line of the flash-crowd study: the comparison
// columns plus the forwarding fraction inside versus outside the crowd
// window and the peak instantaneous load imbalance while the crowd burns.
type FlashRow struct {
	Row           PolicyRow
	FwdIn, FwdOut float64
	PeakImbalance float64
}

// FlashStudy replays a flash-crowd trace — one cold file spiking to 60% of
// traffic for 15% of the stream — through every policy, reading the
// in-window forwarding spike (LARD's replication thrash, chash-bounded's
// spill) and the peak load imbalance off per-run series recordings.
func FlashStudy(p *runner.Pool, scale float64) ([]FlashRow, string, error) {
	spec := trace.GenSpec{
		Name: "flash", Mode: trace.ModeFlash,
		Files: 8000, AvgFileKB: 16, Requests: reqCount(400_000, scale),
		AvgReqKB: 12, Alpha: 1.0, LocalityP: 0.2,
		FlashStart: 0.4, FlashDur: 0.15, FlashFrac: 0.6, Seed: 43,
	}
	tr, err := trace.Generate(spec)
	if err != nil {
		return nil, "", err
	}
	recs := make([]*obs.Series, len(nonstationaryPolicies))
	jobs := make([]runner.Job, len(nonstationaryPolicies))
	for i, name := range nonstationaryPolicies {
		recs[i] = obs.NewSeries(0.5)
		jobs[i] = runner.Job{
			Key: "flash/" + name,
			Config: server.NewConfig(server.CustomServer, 8,
				server.WithPolicy(name), server.WithSeed(5),
				server.WithWarmFraction(0.1), server.WithSeries(recs[i])),
			Trace: tr,
		}
	}
	var rows []FlashRow
	for i, jr := range p.Run(jobs) {
		if jr.Err != nil {
			return nil, "", fmt.Errorf("experiments: %s: %w", jr.Key, jr.Err)
		}
		row := FlashRow{Row: policyRow(nonstationaryPolicies[i], jr.Result)}
		row.FwdIn, row.FwdOut, row.PeakImbalance = flashWindowStats(recs[i], spec.FlashStart, spec.FlashDur)
		rows = append(rows, row)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flash crowd on %s: one cold file takes %.0f%% of traffic over [%.0f%%, %.0f%%) of the stream\n",
		tr.Name, spec.FlashFrac*100, spec.FlashStart*100, (spec.FlashStart+spec.FlashDur)*100)
	fmt.Fprintf(&b, "  %-14s %10s %8s %10s %10s %10s %12s\n",
		"policy", "req/s", "miss%", "fwd-in%", "fwd-out%", "imbalance", "peak-imbal")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %10.0f %8.1f %10.1f %10.1f %10.2f %12.2f\n",
			r.Row.Policy, r.Row.Throughput, r.Row.MissRate*100,
			r.FwdIn*100, r.FwdOut*100, r.Row.Imbalance, r.PeakImbalance)
	}
	return rows, b.String(), nil
}

// reqCount scales a full-size request budget, with a floor that keeps the
// series-based measurements meaningful at test scales.
func reqCount(full int, scale float64) int {
	n := int(float64(full) * scale)
	if n < 5000 {
		n = 5000
	}
	return n
}

// rotationTrace builds the abrupt hot-set rotation: two stationary Zipf
// halves over disjoint catalogs, concatenated. At the midpoint every
// popular document goes cold at once — the hardest realization of churn.
func rotationTrace(files, requests int, seed int64) (*trace.Trace, error) {
	half := requests / 2
	a, err := trace.Generate(trace.GenSpec{Name: "rotate-a", Files: files, AvgFileKB: 16,
		Requests: half, AvgReqKB: 12, Alpha: 1.0, LocalityP: 0.2, Seed: seed})
	if err != nil {
		return nil, err
	}
	b, err := trace.Generate(trace.GenSpec{Name: "rotate-b", Files: files, AvgFileKB: 16,
		Requests: requests - half, AvgReqKB: 12, Alpha: 1.0, LocalityP: 0.2, Seed: seed + 1})
	if err != nil {
		return nil, err
	}
	t := &trace.Trace{
		Name:     "rotate",
		Alpha:    a.Alpha,
		Sizes:    append(append([]int64(nil), a.Sizes...), b.Sizes...),
		Requests: append([]cache.FileID(nil), a.Requests...),
	}
	for _, id := range b.Requests {
		t.Requests = append(t.Requests, id+cache.FileID(files))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// clusterHitTimeline averages the per-node cache hit-rate samples of each
// probe tick into one cluster-wide timeline.
func clusterHitTimeline(rec *obs.Series) (ts, hits []float64) {
	sum := map[float64]float64{}
	n := map[float64]int{}
	for _, s := range rec.Samples() {
		if s.Metric != server.SeriesCacheHitRate {
			continue
		}
		sum[s.T] += s.V
		n[s.T]++
	}
	for t := range sum {
		ts = append(ts, t)
	}
	sort.Float64s(ts)
	for _, t := range ts {
		hits = append(hits, sum[t]/float64(n[t]))
	}
	return ts, hits
}

// adaptationLag reads the hot-set rotation response off a run's hit-rate
// timeline: the pre-rotation mean is taken over the steady window before
// the crash (the first tick falling under 70% of that running mean), and the
// lag is the time from the crash until recovery to 90% of the pre-rotation
// mean. The timeline is smoothed with a short trailing moving average
// first, so a single lucky tick (temporal locality re-hitting a just-cached
// file) cannot fake a recovery. A run that never crashes reports 0; one
// that never recovers reports the remaining run length.
func adaptationLag(rec *obs.Series) float64 {
	ts, hits := clusterHitTimeline(rec)
	if len(ts) < 8 {
		return 0
	}
	if w := min(5, len(hits)/8); w > 1 {
		sm := make([]float64, len(hits))
		var run float64
		for i, v := range hits {
			run += v
			if i >= w {
				run -= hits[i-w]
				sm[i] = run / float64(w)
			} else {
				sm[i] = run / float64(i+1)
			}
		}
		hits = sm
	}
	skip := len(ts) / 10 // discard cold-start ticks
	var preSum float64
	var preN int
	crash := -1
	for i := skip; i < len(ts); i++ {
		if preN >= 4 && hits[i] < 0.7*preSum/float64(preN) {
			crash = i
			break
		}
		preSum += hits[i]
		preN++
	}
	if crash < 0 {
		return 0
	}
	pre := preSum / float64(preN)
	for i := crash; i < len(ts); i++ {
		if hits[i] >= 0.9*pre {
			return ts[i] - ts[crash]
		}
	}
	return ts[len(ts)-1] - ts[crash]
}

// flashWindowStats reads the crowd response off one run's series: the
// dt-weighted forwarding fraction inside the crowd window versus the
// pre-crowd steady state, and the peak per-tick max/mean load imbalance
// inside the window. The window is located by time fraction — at
// saturation, completions accrue near-uniformly, so the request-index
// window maps onto the same fraction of the run.
func flashWindowStats(rec *obs.Series, fstart, fdur float64) (fwdIn, fwdOut, peakImbal float64) {
	samples := rec.Samples() // a copy: materialise once
	var tEnd float64
	for _, s := range samples {
		if s.T > tEnd {
			tEnd = s.T
		}
	}
	inWin := func(t float64) bool { return t >= fstart*tEnd && t < (fstart+fdur)*tEnd }
	preWin := func(t float64) bool { return t >= 0.05*tEnd && t < (fstart-0.02)*tEnd }

	var inSum, inDt, outSum, outDt float64
	loads := map[float64][]float64{}
	for _, s := range samples {
		switch s.Metric {
		case server.SeriesForwardFrac:
			if inWin(s.T) {
				inSum += s.V * s.Dt
				inDt += s.Dt
			} else if preWin(s.T) {
				outSum += s.V * s.Dt
				outDt += s.Dt
			}
		case server.SeriesLoad:
			if inWin(s.T) {
				loads[s.T] = append(loads[s.T], s.V)
			}
		}
	}
	if inDt > 0 {
		fwdIn = inSum / inDt
	}
	if outDt > 0 {
		fwdOut = outSum / outDt
	}
	for _, ls := range loads {
		var sum, max float64
		for _, v := range ls {
			sum += v
			if v > max {
				max = v
			}
		}
		if sum > 0 {
			if imbal := max * float64(len(ls)) / sum; imbal > peakImbal {
				peakImbal = imbal
			}
		}
	}
	return fwdIn, fwdOut, peakImbal
}
