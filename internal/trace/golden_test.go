package trace

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// Golden-stability regression: every stationary GenSpec must produce a
// byte-identical trace across refactors of Generate. The hashes below were
// computed before the non-stationary modes (churn/diurnal/flash) were added;
// the stationary path branches before a single RNG draw, so these pins must
// never need regeneration. If this test fails, the stationary generator's
// behavior changed — fix the code, do not update the hashes.
var stationaryGoldenSHA256 = map[string]string{
	"calgary":        "40c2ba1950d63cee50a50699a1dfb96e583bdaec8b9884243d1d25e0bf1c378f",
	"clarknet":       "6a47f19fe723bcd6201c8ac42124b95db4a14128347dc88aaf5ad37e39d804fd",
	"nasa":           "b88dd653f3bf20ff2e325050474197001f24893f51e22fb0f1a07c7d58069ac6",
	"rutgers":        "380ef604e1b17c1ece0b106f3fbf2d4833a7d6a562d127e699bc7fc54a187164",
	"custom-plain":   "1a8ef4dd523754c1deab64f96ffbcd7b1d764f2b6aabead6c7c05bc35008f8a1",
	"custom-clients": "a8f7652f8964d1421dd196da8d7a705c64e8146565946ec29f50f04961e12f52",
	// Computed on the serial calibration that the chunked fill replaced.
	"custom-large": "37153921a6256094622a76f684276c432b6188c837c734cad9fb4c36f028f545",
}

// stationaryGoldenSpecs returns the pinned specs: the four Table 2 traces at
// 2% scale (same code path, test-sized), two custom specs covering the
// head-boost and client-tagging branches, and the bench workloads' spec at a
// fifth of their catalogue.
func stationaryGoldenSpecs() []GenSpec {
	var specs []GenSpec
	for _, s := range PaperTraces() {
		specs = append(specs, s.Scaled(0.02))
	}
	return append(specs,
		GenSpec{Name: "custom-plain", Files: 5000, AvgFileKB: 20, Requests: 40000,
			AvgReqKB: 12, Alpha: 0.9, LocalityP: 0.3, Seed: 21},
		GenSpec{Name: "custom-clients", Files: 3000, AvgFileKB: 30, Requests: 30000,
			AvgReqKB: 18, Alpha: 1.1, LocalityP: 0.2, HeadBoost: 0.4, HeadFiles: 150,
			Clients: 500, ClientAlpha: 1.2, Seed: 22},
		GenSpec{Name: "custom-large", Files: 200000, AvgFileKB: 6, Requests: 50000,
			AvgReqKB: 5, Alpha: 0.8, LocalityP: 0.3, Seed: 23},
	)
}

func TestStationaryGenerateGolden(t *testing.T) {
	for _, spec := range stationaryGoldenSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			want, ok := stationaryGoldenSHA256[spec.Name]
			if !ok {
				t.Fatalf("no pinned hash for %s", spec.Name)
			}
			tr, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := tr.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
				t.Errorf("stationary trace %s changed: sha256 %s, pinned %s", spec.Name, got, want)
			}
		})
	}
}

// nonStationaryGolden pins the churn, diurnal and flash generators the same
// way, by spec text. The hashes were computed at commit 90c9a82, while
// shotnoise.sortByTime was still a comparison sort on (time, emission
// index): a change to the shot-noise ordering that is not byte-identical
// fails here, as does any change to a generator's draw order. The first
// churn spec is the observed16 bench workload at a tenth of its catalogue
// and stream; the second draws Pareto document weights.
var nonStationaryGolden = []struct{ spec, sha256 string }{
	{"churn:files=2000,filekb=16,reqs=120000,lifetime=10",
		"b65a02e02c70059a1b4754bf99dbf7a2de8f89dcf7979458aa7eafd5d0d0f191"},
	{"churn:files=3000,filekb=16,reqs=80000,lifetime=10,shape=1.6,seed=5",
		"022c7db86580b2f8ae902d2c5e621ba7bfbae68bb5d0e71920b6e0d01d15a786"},
	{"diurnal:files=3000,filekb=12,reqs=30000,amp=0.6,periods=3,seed=6",
		"7056ca07e5742636cbb914cd8145e6cd222cc166380ac3aca08af174c0171ad0"},
	{"flash:files=3000,filekb=20,reqs=30000,reqkb=12,alpha=0.9,seed=7",
		"5df1b07b1130254236b0f65ff756d7f0653ce84c521bed6e6ff3b3a35f86170d"},
}

func TestNonStationaryGenerateGolden(t *testing.T) {
	for _, g := range nonStationaryGolden {
		t.Run(g.spec, func(t *testing.T) {
			spec, err := ParseGenSpec(g.spec)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if _, err := tr.WriteTo(h); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != g.sha256 {
				t.Errorf("trace %s changed: sha256 %s, pinned %s", g.spec, got, g.sha256)
			}
		})
	}
}
