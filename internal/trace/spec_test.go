package trace

import (
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestParseGenSpecModes(t *testing.T) {
	cases := []struct {
		in   string
		want GenSpec
	}{
		{"stationary:files=5000,filekb=20,reqs=40000,reqkb=12,alpha=0.9,localp=0.3,seed=21",
			GenSpec{Files: 5000, AvgFileKB: 20, Requests: 40000, AvgReqKB: 12,
				Alpha: 0.9, LocalityP: 0.3, Seed: 21}},
		{"churn:files=20000,filekb=16,reqs=500000,lifetime=10,horizon=400,docrate=45,shape=1.6,seed=3",
			GenSpec{Mode: ModeChurn, Files: 20000, AvgFileKB: 16, Requests: 500000,
				DocLifetime: 10, Horizon: 400, DocRate: 45, WeightShape: 1.6, Seed: 3}},
		{"diurnal:files=1000,filekb=20,reqs=5000,reqkb=12,alpha=0.9,amp=0.7,periods=3",
			GenSpec{Mode: ModeDiurnal, Files: 1000, AvgFileKB: 20, Requests: 5000,
				AvgReqKB: 12, Alpha: 0.9, DiurnalAmp: 0.7, DiurnalPeriods: 3}},
		{"flash:files=1000,filekb=20,reqs=5000,reqkb=12,alpha=0.9,fstart=0.5,fdur=0.1,ffrac=0.8",
			GenSpec{Mode: ModeFlash, Files: 1000, AvgFileKB: 20, Requests: 5000,
				AvgReqKB: 12, Alpha: 0.9, FlashStart: 0.5, FlashDur: 0.1, FlashFrac: 0.8}},
		{"clarknet", mustPaperTrace(t, "clarknet")},
		{" calgary : reqs = 1000 ", withRequests(mustPaperTrace(t, "calgary"), 1000)},
		{"churn:name=rotate,files=100,filekb=8,reqs=200", GenSpec{Mode: ModeChurn,
			Name: "rotate", Files: 100, AvgFileKB: 8, Requests: 200}},
	}
	for _, c := range cases {
		got, err := ParseGenSpec(c.in)
		if err != nil {
			t.Errorf("ParseGenSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseGenSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func mustPaperTrace(t *testing.T, name string) GenSpec {
	t.Helper()
	s, err := PaperTrace(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func withRequests(s GenSpec, n int) GenSpec {
	s.Requests = n
	return s
}

func TestParseGenSpecErrors(t *testing.T) {
	bad := []string{
		"",
		":files=1",
		"no-such-mode",
		"stationary:",
		"stationary:files",
		"stationary:files=",
		"stationary:files=0",
		"stationary:files=abc",
		"stationary:files=1e3", // ints are decimal integers
		"stationary:localp=1",
		"stationary:alpha=NaN",
		"stationary:alpha=+Inf",
		"stationary:filekb=0",
		"stationary:files=1,files=2",
		"stationary:horizon=10", // churn-only key
		"churn:reqkb=12",        // zipf-content key not valid for churn
		"churn:shape=1",
		"churn:shape=0.5",
		"diurnal:amp=1",
		"flash:ffrac=0",
		"flash:ffrac=1",
		"flash:fstart=1",
		"stationary:name=",
		"stationary:seed=abc",
		"stationary:" + strings.Repeat("x", spec.MaxLen),
	}
	for _, s := range bad {
		if spec, err := ParseGenSpec(s); err == nil {
			t.Errorf("ParseGenSpec(%q) accepted: %+v", s, spec)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []string{
		"stationary:files=5000,filekb=20,reqs=40000,reqkb=12,alpha=0.9,localp=0.3,seed=21",
		"churn:files=20000,filekb=16,reqs=500000,lifetime=10,shape=1.6,seed=3",
		"diurnal:files=1000,filekb=20,reqs=5000,reqkb=12,amp=0.7,periods=3",
		"flash:name=viral,files=1000,filekb=20,reqs=5000,reqkb=12,fstart=0.5,fdur=0.1,ffrac=0.8",
		"nasa",
		"rutgers:clients=500,clientalpha=1.2",
	}
	for _, in := range specs {
		spec, err := ParseGenSpec(in)
		if err != nil {
			t.Fatalf("ParseGenSpec(%q): %v", in, err)
		}
		canon := spec.SpecString()
		again, err := ParseGenSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, in, err)
		}
		if again != spec {
			t.Errorf("round trip of %q: %+v -> %q -> %+v", in, spec, canon, again)
		}
		if again.SpecString() != canon {
			t.Errorf("canonical form not a fixed point: %q -> %q", canon, again.SpecString())
		}
	}
	// The zero spec renders as the bare stationary mode.
	if got := (GenSpec{}).SpecString(); got != "stationary" {
		t.Errorf("zero spec renders as %q", got)
	}
}

// TestSpecStringPaperTraces: every paper trace's canonical form re-parses
// to the published spec, so CLIs can log and replay them verbatim.
func TestSpecStringPaperTraces(t *testing.T) {
	for _, s := range PaperTraces() {
		again, err := ParseGenSpec(s.SpecString())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if again != s {
			t.Errorf("%s: canonical form %q re-parses to %+v", s.Name, s.SpecString(), again)
		}
	}
}
