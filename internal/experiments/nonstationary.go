package experiments

import (
	"fmt"
	"maps"
	"slices"

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

// ChurnStudy runs the policy comparison on a shot-noise churned workload,
// measures per-policy adaptation lag after a hot-set rotation — the
// simulated seconds between the rotation cratering the cluster hit rate
// and the hit rate recovering to 90% of its pre-rotation mean — and drives
// a diurnal open-loop day through the piecewise arrival schedule. scale
// scales request counts like the figure experiments (1 = full size). It
// returns the saturation results and adaptation lags, both aligned with
// nonstationaryPolicies.
func ChurnStudy(p *runner.Pool, scale float64) ([]server.Result, []float64, string, error) {
	churnTr, err := trace.Generate(trace.GenSpec{
		Name: "churn", Mode: trace.ModeChurn,
		Files: 12000, AvgFileKB: 16, Requests: reqCount(600_000, scale),
		Horizon: 300, DocLifetime: 12, Seed: 41,
	})
	if err != nil {
		return nil, nil, "", err
	}
	// The rotation catalog (24000 files x ~16KB per half, ~375MB) exceeds
	// the 8-node aggregate cache, so the rotation genuinely craters the
	// cluster hit rate rather than being absorbed by spare capacity.
	rotTr, err := rotationTrace(24000, reqCount(400_000, scale), 47)
	if err != nil {
		return nil, nil, "", err
	}
	diurnalSpec := trace.GenSpec{
		Name: "diurnal", Mode: trace.ModeDiurnal,
		Files: 8000, AvgFileKB: 16, Requests: reqCount(400_000, scale),
		AvgReqKB: 12, Alpha: 1.0, LocalityP: 0.2,
		DiurnalAmp: 0.6, DiurnalPeriods: 2, Seed: 49,
	}
	diurnalTr, err := trace.Generate(diurnalSpec)
	if err != nil {
		return nil, nil, "", err
	}

	// The comparison table at saturation on the churned trace; its lag
	// column is read off the rotation runs once they are done.
	lags := make([]float64, len(nonstationaryPolicies))
	table := &study{
		title: fmt.Sprintf("shot-noise churn on %s (%d docs realized, %d requests): policies at saturation",
			churnTr.Name, len(churnTr.Sizes), len(churnTr.Requests)),
		trace: churnTr,
		cols: []column{label("policy", 14), reqPerSec, missPct, fwdPct, imbalance,
			{"adapt-lag s", "%12.1f", func(r server.Result) any { return lags[slices.Index(nonstationaryPolicies, r.System)] }}},
	}
	for _, name := range nonstationaryPolicies {
		table.add("churn", name, server.NewConfig(server.CustomServer, 8,
			server.WithPolicy(name), server.WithSeed(5)))
	}
	// The lag is read off each rotation run's cluster hit-rate timeline.
	rotate := &study{trace: rotTr}
	recs := recordedRows(rotate, "rotate", 0.1)
	// A diurnal day, open loop: the offered rate follows the sinusoidal
	// schedule and latency is true client-perceived time.
	diurnal := &study{
		title: fmt.Sprintf("diurnal open loop (mean 2000 req/s, amplitude %.0f%%, 16 nodes)", diurnalSpec.DiurnalAmp*100),
		trace: diurnalTr,
		cols: []column{label("policy", 14), reqPerSec,
			{"mean ms", "%12.2f", func(r server.Result) any { return r.LatencyMean * 1000 }},
			{"p99 ms", "%12.2f", func(r server.Result) any { return r.LatencyP99 * 1000 }}},
	}
	sched := server.DiurnalSchedule(2000, diurnalSpec.DiurnalAmp, 30, 12)
	for _, name := range []string{"lard", "l2s"} {
		diurnal.add("diurnal", name, server.NewConfig(server.CustomServer, 16,
			server.WithPolicy(name), server.WithSeed(5), server.WithArrivalSchedule(sched)))
	}

	res, err := runStudies(p, table, rotate, diurnal)
	if err != nil {
		return nil, nil, "", err
	}
	for i, rec := range recs {
		lags[i] = adaptationLag(rec)
	}
	return res[0], lags, table.render(res[0]) + "\n" + diurnal.render(res[2]), nil
}

// FlashRow is one policy's series-derived line of the flash-crowd study:
// the forwarding fraction inside versus outside the crowd window and the
// peak instantaneous load imbalance while the crowd burns.
type FlashRow struct {
	FwdIn, FwdOut float64
	PeakImbalance float64
}

// FlashStudy replays a flash-crowd trace — one cold file spiking to 60% of
// traffic for 15% of the stream — through every policy, reading the
// in-window forwarding spike (LARD's replication thrash, chash-bounded's
// spill) and the peak load imbalance off per-run series recordings. The
// results and rows align with nonstationaryPolicies.
func FlashStudy(p *runner.Pool, scale float64) ([]server.Result, []FlashRow, string, error) {
	spec := trace.GenSpec{
		Name: "flash", Mode: trace.ModeFlash,
		Files: 8000, AvgFileKB: 16, Requests: reqCount(400_000, scale),
		AvgReqKB: 12, Alpha: 1.0, LocalityP: 0.2,
		FlashStart: 0.4, FlashDur: 0.15, FlashFrac: 0.6, Seed: 43,
	}
	tr, err := trace.Generate(spec)
	if err != nil {
		return nil, nil, "", err
	}
	rows := make([]FlashRow, len(nonstationaryPolicies))
	row := func(r server.Result) FlashRow { return rows[slices.Index(nonstationaryPolicies, r.System)] }
	s := study{
		title: fmt.Sprintf("flash crowd on %s: one cold file takes %.0f%% of traffic over [%.0f%%, %.0f%%) of the stream",
			tr.Name, spec.FlashFrac*100, spec.FlashStart*100, (spec.FlashStart+spec.FlashDur)*100),
		trace: tr,
		cols: []column{label("policy", 14), reqPerSec, missPct,
			{"fwd-in%", "%10.1f", func(r server.Result) any { return row(r).FwdIn * 100 }},
			{"fwd-out%", "%10.1f", func(r server.Result) any { return row(r).FwdOut * 100 }},
			imbalance,
			{"peak-imbal", "%12.2f", func(r server.Result) any { return row(r).PeakImbalance }}},
	}
	recs := recordedRows(&s, "flash", 0.5)
	res, err := runStudies(p, &s)
	if err != nil {
		return nil, nil, "", err
	}
	for i, rec := range recs {
		rows[i] = flashWindowStats(rec, spec.FlashStart, spec.FlashDur)
	}
	return res[0], rows, s.render(res[0]), nil
}

// recordedRows adds one row per nonstationary policy to s, on 8 nodes after
// a 10% warm-up, each with its own series recorder sampling every dt
// simulated seconds (a Series must not be shared across parallel runs),
// and returns the recorders in row order.
func recordedRows(s *study, key string, dt float64) []*obs.Series {
	recs := make([]*obs.Series, len(nonstationaryPolicies))
	for i, name := range nonstationaryPolicies {
		recs[i] = obs.NewSeries(dt)
		s.add(key, name, server.NewConfig(server.CustomServer, 8,
			server.WithPolicy(name), server.WithSeed(5),
			server.WithWarmFraction(0.1), server.WithSeries(recs[i])))
	}
	return recs
}

// reqCount scales a full-size request budget, with a floor that keeps the
// series-based measurements meaningful at test scales.
func reqCount(full int, scale float64) int {
	return max(int(float64(full)*scale), 5000)
}

// rotationTrace builds the abrupt hot-set rotation: two stationary Zipf
// halves over disjoint catalogs, concatenated. At the midpoint every
// popular document goes cold at once — the hardest realization of churn.
func rotationTrace(files, requests int, seed int64) (*trace.Trace, error) {
	var halves []*trace.Trace
	for i, n := range []int{requests / 2, requests - requests/2} {
		h, err := trace.Generate(trace.GenSpec{Name: fmt.Sprintf("rotate-%c", 'a'+i), Files: files,
			AvgFileKB: 16, Requests: n, AvgReqKB: 12, Alpha: 1.0, LocalityP: 0.2, Seed: seed + int64(i)})
		if err != nil {
			return nil, err
		}
		halves = append(halves, h)
	}
	a, b := halves[0], halves[1]
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
	ts = slices.Sorted(maps.Keys(sum))
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
func flashWindowStats(rec *obs.Series, fstart, fdur float64) (f FlashRow) {
	samples := rec.Samples() // a copy: materialise once
	var tEnd float64
	for _, s := range samples {
		tEnd = max(tEnd, s.T)
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
		f.FwdIn = inSum / inDt
	}
	if outDt > 0 {
		f.FwdOut = outSum / outDt
	}
	for _, ls := range loads {
		var sum float64
		for _, v := range ls {
			sum += v
		}
		if sum > 0 {
			f.PeakImbalance = max(f.PeakImbalance, slices.Max(ls)*float64(len(ls))/sum)
		}
	}
	return f
}
