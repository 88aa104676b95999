package obs_test

import (
	"encoding/json"
	"io"
	"runtime"
	"testing"

	"repro/internal/obs"
)

var probeMetrics = []string{"cpu_util", "disk_util", "ni_in_util", "ni_out_util", "cache_hit_rate", "queue_cpu", "load"}

// fillSeries records ticks batches shaped like server's sampling probe:
// seven metrics per node, then three cluster-wide ones.
func fillSeries(rec *obs.Series, nodes, ticks int) {
	for k := 1; k <= ticks; k++ {
		t := float64(k) * 0.1
		for n := 0; n < nodes; n++ {
			for _, m := range probeMetrics {
				rec.Record(t, 0.1, n, m, float64(k+n)/7)
			}
		}
		rec.Record(t, 0.1, obs.ClusterWide, "router_util", 0.5)
		rec.Record(t, 0.1, obs.ClusterWide, "throughput", 4000)
		rec.Record(t, 0.1, obs.ClusterWide, "forward_frac", 0.25)
	}
}

// observed16Ticks x (16 x 7 + 3) = 206,885 samples: the size of the series
// the observed16 benchmark workload records (206,880).
const observed16Ticks = 1799

// BenchmarkSeriesRecord: one op records an observed16-sized series.
func BenchmarkSeriesRecord(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fillSeries(obs.NewSeries(0.1), 16, observed16Ticks)
	}
}

func benchWriter(b *testing.B, write func(*obs.Series, io.Writer) error) {
	rec := obs.NewSeries(0.1)
	fillSeries(rec, 16, observed16Ticks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(rec, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSONL(b *testing.B) { benchWriter(b, (*obs.Series).WriteJSONL) }

func BenchmarkWriteChromeTrace(b *testing.B) { benchWriter(b, (*obs.Series).WriteChromeTrace) }

// allocated runs fn and returns what it allocated.
func allocated(fn func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestWritersStream: both writers allocate a bounded amount however long
// the series is (the batch Chrome writer allocated about 890 B and 5.75
// mallocs per sample).
func TestWritersStream(t *testing.T) {
	// encoding/json keeps its buffers in a sync.Pool, and the race detector
	// makes a Pool drop a quarter of what is put back: allocation counts
	// then measure the detector, not the writers.
	enc, x := json.NewEncoder(io.Discard), 1.5
	if _, mallocs := allocated(func() {
		for i := 0; i < 10_000; i++ {
			enc.Encode(&x)
		}
	}); mallocs > 100 {
		t.Skipf("encoding/json allocated %d times for 10,000 floats: its pool is not holding (race detector?)", mallocs)
	}

	rec := obs.NewSeries(0.1)
	fillSeries(rec, 16, 435) // 50,025 samples
	for name, write := range map[string]func(io.Writer) error{
		"WriteJSONL": rec.WriteJSONL, "WriteChromeTrace": rec.WriteChromeTrace,
	} {
		bytes, mallocs := allocated(func() {
			if err := write(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d samples, %d bytes in %d mallocs", name, rec.Len(), bytes, mallocs)
		if rec.Len() < 50_000 || bytes >= 1<<20 {
			t.Errorf("%s allocated %d bytes for %d samples, want < 1 MiB for >= 50,000", name, bytes, rec.Len())
		}
	}
}
