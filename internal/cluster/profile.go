package cluster

import (
	"fmt"
	"math"
)

// Profile describes one node's hardware relative to the Table 1 baseline.
// The paper assumes "all cluster nodes are equally powerful"; a Profile
// relaxes that per node and per resource, which is what real fleets —
// mixed hardware generations, SSD tiers in front of disk tiers, one
// underprovisioned straggler — look like.
//
// The zero value of every field selects the baseline: speeds of 0 (or the
// explicit 1) mean "Table 1 rate", LinkKBps 0 means "the cluster network's
// configured link rate", CacheBytes 0 means "the cluster-wide default".
type Profile struct {
	// CPUSpeed is the node's relative CPU speed: all CPU service times at
	// the node divide by it. 0 or 1 is the baseline.
	CPUSpeed float64
	// DiskSpeed is the node's relative disk speed: all disk service times
	// at the node divide by it. 0 or 1 is the baseline; an SSD tier is a
	// large value here.
	DiskSpeed float64
	// LinkKBps is the node's network-interface line rate in KB/s. It
	// bounds wire serialization of intra-cluster transfers touching the
	// node and scales the size-dependent part of its NI service times.
	// 0 selects the cluster network's configured link rate.
	LinkKBps float64
	// CacheBytes is the node's main-memory file cache. 0 selects the
	// cluster-wide default.
	CacheBytes int64
}

// DefaultProfile returns the explicit Table 1 baseline: unit speeds,
// default link, default cache.
func DefaultProfile() Profile { return Profile{CPUSpeed: 1, DiskSpeed: 1} }

// Validate reports profile errors. Zero fields are legal (they select
// defaults); negative, NaN and infinite ones are not — a NaN speed turns
// every service time into NaN and the simulator's clock with it.
func (p Profile) Validate() error {
	// x >= 0 is false for NaN, so one test rejects negatives and NaN.
	ok := func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
	switch {
	case !ok(p.CPUSpeed):
		return fmt.Errorf("cluster: bad CPU speed %v (want a finite value >= 0)", p.CPUSpeed)
	case !ok(p.DiskSpeed):
		return fmt.Errorf("cluster: bad disk speed %v (want a finite value >= 0)", p.DiskSpeed)
	case !ok(p.LinkKBps):
		return fmt.Errorf("cluster: bad link rate %v (want a finite value >= 0)", p.LinkKBps)
	case p.CacheBytes < 0:
		return fmt.Errorf("cluster: negative cache size %d", p.CacheBytes)
	}
	return nil
}

// Normalized returns the profile with zero speed fields replaced by the
// baseline 1. LinkKBps and CacheBytes stay 0 when defaulted — their
// concrete values belong to the network and server configuration.
func (p Profile) Normalized() Profile {
	if p.CPUSpeed == 0 {
		p.CPUSpeed = 1
	}
	if p.DiskSpeed == 0 {
		p.DiskSpeed = 1
	}
	return p
}
