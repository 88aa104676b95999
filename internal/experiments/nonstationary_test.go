package experiments

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// The non-stationary studies at test scale: every policy produces a row, the
// tables carry the headline columns, and the series-derived metrics stay in
// their physical ranges.

func TestChurnStudy(t *testing.T) {
	rows, lags, text, err := ChurnStudy(testPool(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(nonstationaryPolicies) || len(lags) != len(rows) {
		t.Fatalf("got %d rows and %d lags, want %d", len(rows), len(lags), len(nonstationaryPolicies))
	}
	for i, r := range rows {
		if r.System != nonstationaryPolicies[i] {
			t.Errorf("row %d: policy %q, want %q", i, r.System, nonstationaryPolicies[i])
		}
		if r.Throughput <= 0 {
			t.Errorf("%s: throughput %v", r.System, r.Throughput)
		}
		if r.MissRate <= 0 || r.MissRate > 1 {
			t.Errorf("%s: miss rate %v outside (0,1]", r.System, r.MissRate)
		}
		if lags[i] < 0 {
			t.Errorf("%s: negative adaptation lag %v", r.System, lags[i])
		}
	}
	for _, want := range []string{"shot-noise churn", "adapt-lag", "diurnal open loop", "lard", "l2s"} {
		if !strings.Contains(text, want) {
			t.Errorf("churn table missing %q:\n%s", want, text)
		}
	}
}

func TestFlashStudy(t *testing.T) {
	results, rows, text, err := FlashStudy(testPool(), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(nonstationaryPolicies) || len(rows) != len(results) {
		t.Fatalf("got %d results and %d rows, want %d", len(results), len(rows), len(nonstationaryPolicies))
	}
	for i, r := range rows {
		name := nonstationaryPolicies[i]
		if results[i].Throughput <= 0 {
			t.Errorf("%s: throughput %v", name, results[i].Throughput)
		}
		if r.FwdIn < 0 || r.FwdIn > 1 || r.FwdOut < 0 || r.FwdOut > 1 {
			t.Errorf("%s: forwarding fractions %v/%v outside [0,1]", name, r.FwdIn, r.FwdOut)
		}
		if r.PeakImbalance < 1 {
			t.Errorf("%s: peak imbalance %v below 1", name, r.PeakImbalance)
		}
	}
	if !strings.Contains(text, "flash crowd") || !strings.Contains(text, "peak-imbal") {
		t.Errorf("flash table malformed:\n%s", text)
	}
}

// adaptationLag on a hand-built timeline: steady 0.8, crash to 0.2 at t=5,
// recovery to 0.75 at t=8 — lag 3. A flat timeline reports no crash.
func TestAdaptationLag(t *testing.T) {
	rec := obs.NewSeries(1)
	hit := func(t, v float64) { rec.Record(t, 1, 0, server.SeriesCacheHitRate, v) }
	for i := 0; i < 10; i++ {
		hit(float64(i), 0.8)
	}
	if lag := adaptationLag(rec); lag != 0 {
		t.Errorf("flat timeline: lag %v, want 0", lag)
	}

	rec = obs.NewSeries(1)
	for i := 0; i < 5; i++ {
		hit(float64(i), 0.8)
	}
	hit(5, 0.2)
	hit(6, 0.4)
	hit(7, 0.6)
	hit(8, 0.75)
	hit(9, 0.8)
	if lag := adaptationLag(rec); lag != 3 {
		t.Errorf("crash at 5, recovery at 8: lag %v, want 3", lag)
	}

	// Never recovers: lag is the remaining run length.
	rec = obs.NewSeries(1)
	for i := 0; i < 6; i++ {
		hit(float64(i), 0.8)
	}
	hit(6, 0.1)
	hit(7, 0.1)
	hit(8, 0.1)
	if lag := adaptationLag(rec); lag != 2 {
		t.Errorf("no recovery: lag %v, want 2 (remaining length)", lag)
	}
}
