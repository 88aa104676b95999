package server

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

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
		cfg.ReqsPerConn != 5 || !cfg.persistent() || !cfg.DistributedFS ||
		!reflect.DeepEqual(cfg.ArrivalSchedule, []RateSegment{{Duration: math.MaxFloat64, Rate: 1200}}) ||
		cfg.Policy != "lard" {
		t.Errorf("options not applied: %+v", cfg)
	}
}

func TestWithPolicyReplacesSystemPolicy(t *testing.T) {
	cfg := NewConfig(Traditional, 4, WithPolicy("hashing"))
	if cfg.Policy != "hashing" {
		t.Errorf("WithPolicy: policy=%q", cfg.Policy)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("named-policy config must validate: %v", err)
	}
}

func TestValidateRejectsUnnamedCustom(t *testing.T) {
	cfg := NewConfig(CustomServer, 4)
	if err := cfg.Validate(); err == nil {
		t.Error("CustomServer without WithPolicy must fail validation")
	}
}

// NaN fails every range check, so each is spelled to be true only inside
// its range; a failure point matters only with a node to fail.
func TestValidateRejectsNaNAndOutOfRange(t *testing.T) {
	nan := math.NaN()
	for name, opt := range map[string]Option{
		"warm NaN":      WithWarmFraction(nan),
		"fail at NaN":   WithFailure(1, nan),
		"fail at -0.1":  WithFailure(1, -0.1),
		"fail at 1.5":   WithFailure(1, 1.5),
		"rate NaN":      WithArrivalRate(nan),
		"rate -5":       WithArrivalRate(-5),
		"router KB NaN": func(c *Config) { c.Net.RouterKBps = nan },
	} {
		if err := NewConfig(L2SServer, 4, opt).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if err := NewConfig(L2SServer, 4, func(c *Config) { c.FailAtFrac = nan }).Validate(); err != nil {
		t.Errorf("a failure point with no node to fail: %v", err)
	}
}

func TestRunReturnsErrorNotPanic(t *testing.T) {
	tr := testTrace(2000)

	// An unknown policy name surfaces the registry listing as an error.
	if _, err := Run(NewConfig(CustomServer, 4, WithPolicy("bogus")), tr); err == nil ||
		!strings.Contains(err.Error(), "valid:") {
		t.Errorf("unknown policy should list valid names, got %v", err)
	}

	// Tunables that conflict with each other are rejected by the policy's
	// factory instead of panicking inside its constructor.
	for _, spec := range []string{"l2s:T=20,t=21", "lard:tlow=80,thigh=40"} {
		if _, err := Run(NewConfig(CustomServer, 4, WithPolicy(spec)), tr); err == nil {
			t.Errorf("%s must return an error", spec)
		}
	}

	// A panicking policy is recovered and reported, not propagated.
	if _, err := Run(NewConfig(CustomServer, 4, WithPolicy("test-boom")), tr); err == nil ||
		!strings.Contains(err.Error(), "boom") {
		t.Errorf("panicking policy should become an error, got %v", err)
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
