package experiments

import (
	"strings"
	"testing"

	"repro/internal/server"
)

func TestTwoTierStudy(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	rows, text, err := TwoTierStudy(testPool(), tr, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d", len(rows))
	}
	byName := map[string]server.Result{}
	for _, r := range rows {
		byName[r.System] = r
	}
	// Capacity weighting must not lose throughput on tiered hardware.
	if w, u := byName["l2s-weighted"], byName["l2s"]; w.Throughput < u.Throughput*0.98 {
		t.Errorf("l2s-weighted %v below l2s %v on a two-tier cluster", w.Throughput, u.Throughput)
	}
	if !strings.Contains(text, "model bound") || !strings.Contains(text, "two-tier") {
		t.Errorf("render incomplete:\n%s", text)
	}
	if _, _, err := TwoTierStudy(testPool(), tr, 8, 8); err == nil {
		t.Error("degenerate split accepted")
	}
}

func TestSlowNodeStudy(t *testing.T) {
	tr := fastTrace(t, "calgary", 0.05)
	rows, text, err := SlowNodeStudy(testPool(), tr, 8, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("want 9 rows, got %d", len(rows))
	}
	// A slow node must not make the cluster faster than uniform hardware.
	// Rows are uniform, one slow node, slow node crashes, per policy.
	for i, policy := range []string{"l2s", "l2s-weighted", "wlc"} {
		uniform, slow := rows[3*i], rows[3*i+1]
		if slow.Throughput > uniform.Throughput*1.02 {
			t.Errorf("%s: slow-node cluster %v beats uniform %v", policy, slow.Throughput, uniform.Throughput)
		}
	}
	if !strings.Contains(text, "slow-node study") {
		t.Errorf("render incomplete:\n%s", text)
	}
	if _, _, err := SlowNodeStudy(testPool(), tr, 8, 8, 0.5); err == nil {
		t.Error("out-of-range slow node accepted")
	}
}
