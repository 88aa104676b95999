package stats

import (
	"strings"
	"testing"
)

// Edge-of-contract behavior: pre-measurement reads and quantile requests
// at and beyond the sampled range.

func TestTimeWeightedValueAndEarlyAverage(t *testing.T) {
	var w TimeWeighted
	if got := w.Average(5); got != 0 {
		t.Fatalf("average before any sample = %v, want the zero value", got)
	}
	w.Set(3, 10)
	if got := w.Value(); got != 3 {
		t.Fatalf("Value = %v, want 3", got)
	}
	// Asking for the average at (or before) the measurement start cannot
	// divide by the zero-length window; it reports the current value.
	if got := w.Average(10); got != 3 {
		t.Fatalf("average over empty window = %v, want current value 3", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	for _, x := range []float64{3, 3, 3, 100} {
		h.Add(x)
	}
	// q=0 still means "some sample": the smallest one's bucket.
	if got, want := h.Quantile(0), h.Quantile(0.25); got != want {
		t.Fatalf("Quantile(0) = %v, want the first bucket estimate %v", got, want)
	}
	// Beyond-range q is defensive territory: the estimate must not escape
	// the top bucket's upper edge.
	if got := h.Quantile(2); got < h.Quantile(1) {
		t.Fatalf("Quantile(2) = %v fell below Quantile(1) = %v", got, h.Quantile(1))
	}
}

func TestHistogramStringEmpty(t *testing.T) {
	h := NewHistogram()
	if s := h.String(); !strings.Contains(s, "empty") {
		t.Fatalf("empty histogram renders as %q", s)
	}
	h.Add(4)
	if s := h.String(); !strings.Contains(s, "n=1") {
		t.Fatalf("histogram summary %q missing the sample count", s)
	}
}
