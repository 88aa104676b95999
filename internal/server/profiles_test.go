package server

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/queuemodel"
	"repro/internal/trace"
)

func TestParseProfilesIssueExample(t *testing.T) {
	got, err := ParseProfiles("4xfast:2.0/1.5/125000/64MB,12xslow:1.0/1.0/125000/32MB")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("expanded to %d profiles, want 16", len(got))
	}
	fast := NodeProfile{CPUSpeed: 2, DiskSpeed: 1.5, LinkKBps: 125000, CacheBytes: 64 << 20}
	slow := NodeProfile{CPUSpeed: 1, DiskSpeed: 1, LinkKBps: 125000, CacheBytes: 32 << 20}
	for i, p := range got {
		want := fast
		if i >= 4 {
			want = slow
		}
		if p != want {
			t.Fatalf("profile %d = %+v, want %+v", i, p, want)
		}
	}
}

func TestParseProfilesShortForms(t *testing.T) {
	cases := []struct {
		spec string
		want []NodeProfile
	}{
		{"1.0/1.0", []NodeProfile{{CPUSpeed: 1, DiskSpeed: 1}}},
		{"2/0.5", []NodeProfile{{CPUSpeed: 2, DiskSpeed: 0.5}}},
		// Empty fields and zero select defaults (normalized to speed 1).
		{"/", []NodeProfile{{CPUSpeed: 1, DiskSpeed: 1}}},
		{"0/0/0", []NodeProfile{{CPUSpeed: 1, DiskSpeed: 1}}},
		// Counts without names, names without counts.
		{"2x1.5/1", []NodeProfile{{CPUSpeed: 1.5, DiskSpeed: 1}, {CPUSpeed: 1.5, DiskSpeed: 1}}},
		{"ssd:1/8", []NodeProfile{{CPUSpeed: 1, DiskSpeed: 8}}},
		// Cache suffixes.
		{"1/1//512KB", []NodeProfile{{CPUSpeed: 1, DiskSpeed: 1, CacheBytes: 512 << 10}}},
		{"1/1//2g", []NodeProfile{{CPUSpeed: 1, DiskSpeed: 1, CacheBytes: 2 << 30}}},
		{"1/1//1048576", []NodeProfile{{CPUSpeed: 1, DiskSpeed: 1, CacheBytes: 1 << 20}}},
		// Two single-node groups.
		{"2/2,1/1", []NodeProfile{{CPUSpeed: 2, DiskSpeed: 2}, {CPUSpeed: 1, DiskSpeed: 1}}},
	}
	for _, tc := range cases {
		got, err := ParseProfiles(tc.spec)
		if err != nil {
			t.Errorf("ParseProfiles(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseProfiles(%q) = %d profiles, want %d", tc.spec, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseProfiles(%q)[%d] = %+v, want %+v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

func TestParseProfilesErrors(t *testing.T) {
	bad := []string{
		"",                        // empty spec
		"1/1,",                    // trailing empty group
		"1",                       // missing disk field
		"1/1/1/1/1",               // too many fields
		"-1/1",                    // negative speed
		"a/1",                     // non-numeric
		"1/1//64XB",               // bad suffix
		"1/1//-4MB",               // negative cache
		"0x1/1",                   // zero count
		"999999999x1/1",           // count past the node cap
		"2000x1/1," + "65000x1/1", // cumulative count past the cap
		"NaN/1,1/1",               // NaN is neither < 0 nor > the cap
		"1/nan",                   // ... in the disk field
		"1/1/NaN",                 // ... in the link field
		"1/1/0/nanMB,1/1",         // ... and as a cache size (int64(NaN) = MinInt64)
		"Inf/1",                   // infinities in each field
		"1/+Inf",
		"1/1/-Inf",
		"1/1//InfGB",
		"1/1//9000000000GB", // in range as a number, past int64 as bytes
		"1/1//1000GB",       // past the 1e12-byte cap
	}
	for _, spec := range bad {
		if got, err := ParseProfiles(spec); err == nil {
			t.Errorf("ParseProfiles(%q) accepted: %d profiles", spec, len(got))
		}
	}
}

// FuzzParseProfiles: the spec parser must be total — no panics, bounded
// output, and every accepted profile must validate and be normalized.
func FuzzParseProfiles(f *testing.F) {
	f.Add("4xfast:2.0/1.5/125000/64MB,12xslow:1.0/1.0/125000/32MB")
	f.Add("1/1")
	f.Add("2x/,3x0/0")
	f.Add("ssd:1/8//1GB")
	f.Add("x:/")
	f.Add("9999999999999999999x1/1")
	f.Add(",,,")
	f.Add("1e3/1e-3/1e9/1e9")
	f.Add("NaN/1,1/1")
	f.Add("1/1/0/nanMB,1/1")
	f.Add("1/Inf")
	f.Add("1/1/-Inf/infGB")
	f.Fuzz(func(t *testing.T, spec string) {
		profiles, err := ParseProfiles(spec)
		if err != nil {
			return
		}
		if len(profiles) == 0 || len(profiles) > maxParsedNodes {
			t.Fatalf("accepted %q with %d profiles", spec, len(profiles))
		}
		for i, p := range profiles {
			// Validate rejects NaN and infinities as well as negatives, so
			// passing it is the "every accepted profile is finite" invariant.
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted %q with invalid profile %d: %v", spec, i, err)
			}
			if p != p.Normalized() {
				t.Fatalf("accepted %q with unnormalized profile %d: %+v", spec, i, p)
			}
		}
	})
}

func TestTieredOption(t *testing.T) {
	fast := NodeProfile{CPUSpeed: 2, DiskSpeed: 8, CacheBytes: 64 << 20}
	slow := NodeProfile{CPUSpeed: 1, DiskSpeed: 1}
	cfg := NewConfig(L2SServer, 6, Tiered(fast, slow, 2))
	if len(cfg.Profiles) != 6 {
		t.Fatalf("Tiered built %d profiles for 6 nodes", len(cfg.Profiles))
	}
	for i, p := range cfg.Profiles {
		want := slow
		if i < 2 {
			want = fast
		}
		if p != want {
			t.Fatalf("node %d profile %+v, want %+v", i, p, want)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Splits are clamped, not rejected.
	if cfg := NewConfig(L2SServer, 4, Tiered(fast, slow, 99)); cfg.Profiles[3] != fast {
		t.Error("oversized split not clamped to all-fast")
	}
	if cfg := NewConfig(L2SServer, 4, Tiered(fast, slow, -1)); cfg.Profiles[0] != slow {
		t.Error("negative split not clamped to all-slow")
	}
}

func TestConfigValidateProfiles(t *testing.T) {
	if err := NewConfig(L2SServer, 4, WithProfiles(UniformProfiles(3, DefaultNodeProfile())...)).Validate(); err == nil {
		t.Error("wrong profile count accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, p := range []NodeProfile{
		{CPUSpeed: 1, DiskSpeed: -1},
		{CPUSpeed: nan, DiskSpeed: 1}, {CPUSpeed: inf, DiskSpeed: 1}, {CPUSpeed: -inf, DiskSpeed: 1},
		{CPUSpeed: 1, DiskSpeed: nan}, {CPUSpeed: 1, DiskSpeed: inf}, {CPUSpeed: 1, DiskSpeed: -inf},
		{LinkKBps: nan}, {LinkKBps: inf}, {LinkKBps: -inf},
		{CacheBytes: -1},
	} {
		bad := UniformProfiles(4, DefaultNodeProfile())
		bad[2] = p
		err := NewConfig(L2SServer, 4, WithProfiles(bad...)).Validate()
		if err == nil || !strings.Contains(err.Error(), "node 2") {
			t.Errorf("profile %+v: error = %v, want one naming node 2", p, err)
		}
	}
}

// TestCapacityWeightsOrdering: faster nodes get proportionally larger
// weights, the mean is 1, and uniform profiles yield exactly all-ones.
func TestCapacityWeightsOrdering(t *testing.T) {
	tr := trace.MustGenerate(trace.GenSpec{
		Name: "w", Files: 200, AvgFileKB: 6, Requests: 2000, AvgReqKB: 5, Alpha: 0.8, Seed: 4,
	})
	costs := queuemodel.DefaultParams()

	profiles := []cluster.Profile{
		{CPUSpeed: 2, DiskSpeed: 2},
		{CPUSpeed: 1, DiskSpeed: 1},
		{CPUSpeed: 0.5, DiskSpeed: 0.5},
	}
	w := capacityWeights(profiles, costs, tr)
	if !(w[0] > w[1] && w[1] > w[2]) {
		t.Fatalf("weights not ordered by speed: %v", w)
	}
	var sum float64
	for _, x := range w {
		sum += x
	}
	if math.Abs(sum/3-1) > 1e-12 {
		t.Errorf("weights mean %v, want 1", sum/3)
	}

	// Uniform profiles: equal capacities normalize to 1 (up to the
	// rounding of the capacity sum).
	uniform := capacityWeights(UniformProfiles(5, DefaultNodeProfile()), costs, tr)
	for i, x := range uniform {
		if math.Abs(x-1) > 1e-12 {
			t.Errorf("uniform weight[%d] = %v, want 1", i, x)
		}
	}
}
