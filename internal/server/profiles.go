package server

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/queuemodel"
	"repro/internal/spec"
	"repro/internal/trace"
)

// NodeProfile describes one node's hardware relative to the Table 1
// baseline (see cluster.Profile for field semantics). The paper assumes
// "all cluster nodes are equally powerful"; profiles relax that so
// mixed-generation and multi-tier clusters can be simulated.
type NodeProfile = cluster.Profile

// DefaultNodeProfile returns the explicit baseline profile.
func DefaultNodeProfile() NodeProfile { return cluster.DefaultProfile() }

// WithProfiles gives each node a hardware profile; exactly one per node.
func WithProfiles(profiles ...NodeProfile) Option {
	return func(c *Config) { c.Profiles = profiles }
}

// UniformProfiles returns n copies of one profile.
func UniformProfiles(n int, p NodeProfile) []NodeProfile {
	out := make([]NodeProfile, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// Tiered profiles the cluster as two hardware tiers: the first split nodes
// get the fast profile and the rest the slow one — the
// small-fast-tier-fronting-big-slow-tier shape of the two-tier study.
// split is clamped to [0, Nodes]; apply it after any option that changes
// Nodes.
func Tiered(fast, slow NodeProfile, split int) Option {
	return func(c *Config) {
		if split < 0 {
			split = 0
		}
		if split > c.Nodes {
			split = c.Nodes
		}
		profiles := make([]NodeProfile, c.Nodes)
		for i := range profiles {
			if i < split {
				profiles[i] = fast
			} else {
				profiles[i] = slow
			}
		}
		c.Profiles = profiles
	}
}

// resolvedProfiles returns the run's per-node profiles, normalized, or nil
// for a fully homogeneous run.
func (c Config) resolvedProfiles() []cluster.Profile {
	if c.Profiles == nil {
		return nil
	}
	out := make([]cluster.Profile, len(c.Profiles))
	for i, p := range c.Profiles {
		out[i] = p.Normalized()
	}
	return out
}

// weightReferenceHit is the cache hit rate at which capacity weights are
// computed. The weighted policies need relative node capacities, and a
// node's bottleneck (CPU vs disk) depends on its hit rate; 0.9 is the
// locality-conscious regime the paper's evaluation operates in, and the
// weights are insensitive to the exact choice (DESIGN.md).
const weightReferenceHit = 0.9

// capacityWeights returns each node's relative capacity, normalized to
// mean 1: the heterogeneous queueing model's per-node saturation rates
// (queuemodel.NodeCapacities) at the reference hit rate, for the trace's
// mean request size. Uniform profiles yield all-ones.
func capacityWeights(profiles []cluster.Profile, costs queuemodel.Params, tr *trace.Trace) []float64 {
	var reqBytes float64
	for _, id := range tr.Requests {
		reqBytes += float64(tr.Size(id))
	}
	p := costs
	p.Nodes = len(profiles)
	if n := len(tr.Requests); n > 0 {
		p.AvgFileKB = reqBytes / float64(n) / 1024
	}
	per := p.NodeCapacities(profiles, weightReferenceHit, 0)
	w := make([]float64, len(per))
	var sum float64
	for i, nb := range per {
		w[i] = nb.RequestsPerSec
		sum += w[i]
	}
	if sum <= 0 {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	mean := sum / float64(len(w))
	for i := range w {
		w[i] /= mean
	}
	return w
}

// maxParsedNodes bounds the node count a -profiles spec can expand to, so
// a hostile count ("999999999xfast:...") cannot exhaust memory.
const maxParsedNodes = 65536

// ParseProfiles parses the unified -profiles CLI spec shared by
// cmd/experiments and cmd/clustersim: comma-separated groups of
//
//	[COUNTx][name:]CPU/DISK[/LINK[/CACHE]]
//
// where CPU and DISK are relative speeds (1 = Table 1 baseline), LINK is
// the NI line rate in KB/s (0 = network default), and CACHE is a byte
// size with an optional KB/MB/GB suffix (0 = cluster default). Empty
// trailing fields select their defaults. Example:
//
//	4xfast:2.0/1.5/125000/64MB,12xslow:1.0/1.0/125000/32MB
//
// expands to 16 profiles. The total node count is capped at 65536.
func ParseProfiles(spec string) ([]NodeProfile, error) {
	var out []NodeProfile
	for _, group := range strings.Split(spec, ",") {
		group = strings.TrimSpace(group)
		if group == "" {
			return nil, fmt.Errorf("profiles: empty group in %q", spec)
		}
		count := 1
		if i := strings.IndexByte(group, 'x'); i >= 0 {
			if n, err := strconv.Atoi(group[:i]); err == nil {
				if n < 1 {
					return nil, fmt.Errorf("profiles: count %d in group %q", n, group)
				}
				count = n
				group = group[i+1:]
			}
		}
		if i := strings.IndexByte(group, ':'); i >= 0 {
			// The name before the colon is a label for humans; only the
			// fields after it matter.
			group = group[i+1:]
		}
		p, err := parseProfileFields(group)
		if err != nil {
			return nil, err
		}
		if len(out)+count > maxParsedNodes {
			return nil, fmt.Errorf("profiles: spec expands past %d nodes", maxParsedNodes)
		}
		for i := 0; i < count; i++ {
			out = append(out, p)
		}
	}
	return out, nil
}

// profileSpeeds are the CPU, DISK and LINK fields of a profile group, in
// order: relative speeds and a line rate, each empty or in [0, 1e6].
var profileSpeeds = []spec.Param[NodeProfile]{
	{Key: "cpu", Max: 1e6, Set: func(p *NodeProfile, v float64) { p.CPUSpeed = v }},
	{Key: "disk", Max: 1e6, Set: func(p *NodeProfile, v float64) { p.DiskSpeed = v }},
	{Key: "link", Max: 1e6, Set: func(p *NodeProfile, v float64) { p.LinkKBps = v }},
}

// parseProfileFields parses the CPU/DISK[/LINK[/CACHE]] tail of one group.
func parseProfileFields(s string) (NodeProfile, error) {
	fields := strings.Split(s, "/")
	if len(fields) < 2 || len(fields) > 4 {
		return NodeProfile{}, fmt.Errorf("profiles: group %q needs CPU/DISK[/LINK[/CACHE]]", s)
	}
	var p NodeProfile
	for i, field := range fields[:min(len(fields), len(profileSpeeds))] {
		if field == "" {
			continue
		}
		v, err := profileSpeeds[i].Parse(field)
		if err != nil {
			return NodeProfile{}, fmt.Errorf("profiles: %w", err)
		}
		profileSpeeds[i].Set(&p, v)
	}
	if len(fields) == 4 {
		var err error
		if p.CacheBytes, err = parseByteSize(fields[3]); err != nil {
			return NodeProfile{}, err
		}
	}
	return p.Normalized(), nil
}

// parseByteSize parses a cache size: a number with an optional KB, MB, or
// GB suffix (case-insensitive; bare K/M/G also accepted). No suffix means
// bytes. Empty means the default (0). The size must be at most 1e12 bytes.
func parseByteSize(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	num := s
	for _, suf := range []struct {
		tag string
		m   int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}} {
		if strings.HasSuffix(upper, suf.tag) {
			mult = suf.m
			num = s[:len(s)-len(suf.tag)]
			break
		}
	}
	// Bound the byte count, not the number: a bounded number of gigabytes
	// can still overflow int64.
	x, err := strconv.ParseFloat(num, 64)
	b := x * float64(mult)
	if err != nil || !(b >= 0 && b <= 1e12) {
		return 0, fmt.Errorf("profiles: bad cache size %q", s)
	}
	return int64(b), nil
}
