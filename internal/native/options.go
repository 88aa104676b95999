// Functional-option construction for the live cluster, mirroring the
// simulator's server.NewConfig: native.Start(native.WithNodes(4),
// native.WithStore(st), ...). Options validate eagerly and Start returns
// the first error instead of silently substituting defaults.
package native

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// Option configures Start. Options validate their arguments; Start returns
// the first error.
type Option func(*clusterConfig) error

// clusterConfig is the resolved configuration Start builds nodes from:
// the only copy of the defaults is defaultClusterConfig, and each option
// validates its own value, so every node shares it as is.
type clusterConfig struct {
	nodes        int
	store        *MemStore
	cacheBytes   int64
	l2s          core.Options
	missPenalty  time.Duration
	servePenalty time.Duration
	health       HealthOptions
	retry        RetryPolicy
	faults       *FaultInjector
	seed         int64
}

func defaultClusterConfig() clusterConfig {
	return clusterConfig{
		nodes:      1,
		cacheBytes: 32 << 20,
		l2s:        core.DefaultOptions(),
		health:     DefaultHealthOptions(),
		retry:      DefaultRetryPolicy(),
		seed:       1,
	}
}

// WithNodes sets the cluster size.
func WithNodes(n int) Option {
	return func(c *clusterConfig) error {
		if n < 1 {
			return fmt.Errorf("native: need at least one node, got %d", n)
		}
		c.nodes = n
		return nil
	}
}

// WithStore sets the backing content source (required).
func WithStore(s *MemStore) Option {
	return func(c *clusterConfig) error {
		if s == nil {
			return errors.New("native: WithStore needs a non-nil store")
		}
		c.store = s
		return nil
	}
}

// WithCacheMB sets the per-node cache capacity in megabytes.
func WithCacheMB(mb int64) Option {
	return func(c *clusterConfig) error {
		if mb <= 0 {
			return fmt.Errorf("native: cache capacity must be positive, got %d MB", mb)
		}
		c.cacheBytes = mb << 20
		return nil
	}
}

// WithL2S sets the L2S tunables: the simulator's core.Options, validated
// the same way. ShrinkAfter counts wall-clock seconds; Oracle is rejected,
// since a live cluster has no true-load oracle.
func WithL2S(o core.Options) Option {
	return func(c *clusterConfig) error {
		if o.Oracle {
			return errors.New("native: l2s oracle is simulator-only: a live cluster has no true-load oracle")
		}
		if err := o.Validate(); err != nil {
			return err
		}
		c.l2s = o
		return nil
	}
}

// WithMissPenalty sets the artificial per-miss disk delay.
func WithMissPenalty(d time.Duration) Option {
	return func(c *clusterConfig) error {
		if d < 0 {
			return fmt.Errorf("native: miss penalty must be >= 0, got %v", d)
		}
		c.missPenalty = d
		return nil
	}
}

// WithServePenalty sets the artificial per-serve transmit delay.
func WithServePenalty(d time.Duration) Option {
	return func(c *clusterConfig) error {
		if d < 0 {
			return fmt.Errorf("native: serve penalty must be >= 0, got %v", d)
		}
		c.servePenalty = d
		return nil
	}
}

// WithHealth replaces the failure-detection tuning.
func WithHealth(h HealthOptions) Option {
	return func(c *clusterConfig) error {
		if err := h.validate(); err != nil {
			return err
		}
		c.health = h
		return nil
	}
}

// WithRetry replaces the hand-off/control retry budget.
func WithRetry(r RetryPolicy) Option {
	return func(c *clusterConfig) error {
		if err := r.validate(); err != nil {
			return err
		}
		c.retry = r
		return nil
	}
}

// WithFaults wires a fault injector into every node's outbound transports.
func WithFaults(fi *FaultInjector) Option {
	return func(c *clusterConfig) error {
		if fi == nil {
			return errors.New("native: WithFaults needs a non-nil injector")
		}
		c.faults = fi
		return nil
	}
}

// WithSeed seeds backoff jitter deterministically (node i derives seed+i).
func WithSeed(seed int64) Option {
	return func(c *clusterConfig) error {
		if seed == 0 {
			return errors.New("native: seed must be non-zero")
		}
		c.seed = seed
		return nil
	}
}
