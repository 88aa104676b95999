package server

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/policy"
)

func TestNewConfigMatchesDefaultConfig(t *testing.T) {
	if got, want := NewConfig(L2SServer, 8), DefaultConfig(L2SServer, 8); got.CacheBytes != want.CacheBytes ||
		got.WindowPerNode != want.WindowPerNode || got.WarmFraction != want.WarmFraction ||
		got.FailNode != want.FailNode || got.L2S != want.L2S || got.LARD != want.LARD {
		t.Errorf("NewConfig without options diverges from DefaultConfig:\n%+v\n%+v", got, want)
	}
}

func TestOptionsApply(t *testing.T) {
	cfg := NewConfig(LARDServer, 4,
		WithSeed(99),
		WithCacheBytes(128<<20),
		WithFailure(2, 0.25),
		WithWindow(20),
		WithWarmFraction(0.1),
		WithPersistent(5),
		WithArrivalRate(1200),
		WithDistributedFS(),
	)
	if cfg.Seed != 99 || cfg.CacheBytes != 128<<20 || cfg.FailNode != 2 ||
		cfg.FailAtFrac != 0.25 || cfg.WindowPerNode != 20 || cfg.WarmFraction != 0.1 ||
		!cfg.Persistent || cfg.ReqsPerConn != 5 || cfg.ArrivalRate != 1200 ||
		!cfg.DistributedFS {
		t.Errorf("options not applied: %+v", cfg)
	}
}

func TestWithPolicySetsCustomSystem(t *testing.T) {
	cfg := NewConfig(Traditional, 4, WithPolicy("hashing"))
	if cfg.System != CustomServer || cfg.Policy != "hashing" {
		t.Errorf("WithPolicy: system=%v policy=%q", cfg.System, cfg.Policy)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("named-policy config must validate: %v", err)
	}
}

func TestValidateRejectsUnnamedCustom(t *testing.T) {
	cfg := NewConfig(CustomServer, 4)
	if err := cfg.Validate(); err == nil {
		t.Error("CustomServer without Policy or CustomPolicy must fail validation")
	}
}

func TestRunReturnsErrorNotPanic(t *testing.T) {
	tr := testTrace(2000)

	// An unknown policy name surfaces the registry listing as an error.
	if _, err := Run(NewConfig(CustomServer, 4, WithPolicy("bogus")), tr); err == nil ||
		!strings.Contains(err.Error(), "valid:") {
		t.Errorf("unknown policy should list valid names, got %v", err)
	}

	// Bad L2S thresholds fail Validate instead of panicking inside New.
	bad := NewConfig(L2SServer, 4)
	bad.L2S.LowT = bad.L2S.T + 1
	if _, err := Run(bad, tr); err == nil {
		t.Error("inverted L2S thresholds must return an error")
	}

	// Bad LARD thresholds likewise.
	badLard := NewConfig(LARDServer, 4)
	badLard.LARD.TLow = -1
	if _, err := Run(badLard, tr); err == nil {
		t.Error("negative LARD threshold must return an error")
	}

	// A panicking custom policy is recovered and reported, not propagated.
	boom := NewConfig(CustomServer, 4, WithCustomPolicy(func(policy.Env) policy.Distributor {
		panic("boom")
	}))
	if _, err := Run(boom, tr); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("panicking CustomPolicy should become an error, got %v", err)
	}
}

// TestSeedReproducesRun checks that Seed alone drives the run's random
// draws: the same Seed reproduces a run bit for bit, and a different one
// perturbs both the open-loop arrivals and persistent-connection lengths.
func TestSeedReproducesRun(t *testing.T) {
	tr := testTrace(4000)
	for _, mode := range []struct {
		name string
		opt  Option
	}{
		{"open loop", WithArrivalRate(1500)},
		{"persistent", WithPersistent(5)},
	} {
		run := func(seed int64) Result {
			r, err := Run(NewConfig(L2SServer, 4, WithSeed(seed), mode.opt), tr)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		ra, rb, rc := run(7), run(7), run(8)
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: same seed must reproduce the identical result", mode.name)
		}
		if reflect.DeepEqual(ra, rc) {
			t.Errorf("%s: different seeds should perturb the run", mode.name)
		}
	}
}
