package policy

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/spec"
)

// Options carries every tunable a registered policy constructor may need.
// The zero value selects the published defaults for each policy, so callers
// only set the fields they care about.
type Options struct {
	// LARD configures the lard, lard-basic, and lard-dispatch policies.
	// The zero value selects DefaultLARDOptions.
	LARD LARDOptions

	// DispatchQuerySec is the dispatcher CPU time per decision query for
	// lard-dispatch; zero or negative selects the calibrated 100 us.
	DispatchQuerySec float64

	// Seed drives the random policy; zero selects the historical seed 7.
	Seed int64

	// DNSTTL is the cached-dns policy's requests per cached translation;
	// zero or negative selects 50.
	DNSTTL int

	// L2S carries core.Options for the l2s policy. It is declared any
	// because package core builds on this package (core cannot be imported
	// from here); core's registration asserts the concrete type. nil
	// selects core.DefaultOptions.
	L2S any

	// Files is the catalogue size; FileIDs lie in [0, Files).
	Files int

	// Requests is the run's request stream, a view of the trace's, not a
	// copy. The per-file indexes (the LARD and L2S server-set tables) keep
	// an entry for each file it names, built once at construction. nil
	// means the stream is unknown: they then keep one for every file of
	// [0, Files), and for any FileID past it as it arrives.
	Requests []FileID

	// Weights gives each node's relative capacity, normalized to mean 1.
	// The simulator fills it from the node hardware profiles; the weighted
	// policies (wlc, lard-weighted, l2s-weighted) scale their thresholds
	// and selections by it. nil means a homogeneous cluster, and makes
	// every weighted policy behave exactly like its unweighted base.
	Weights []float64

	// Chash configures the consistent-hashing family (chash, chash-bounded,
	// chash-d). The zero value selects each name's published defaults.
	Chash ChashOptions
}

// NodeWeights returns o.Weights validated against the cluster size: nil
// (or a wrong-sized slice, which cannot arise through server.Run) falls
// back to nil, the uniform cluster.
func (o Options) NodeWeights(n int) []float64 {
	if len(o.Weights) != n {
		return nil
	}
	return o.Weights
}

// lard returns the LARD options with the zero value replaced by the
// published defaults.
func (o Options) lard() LARDOptions {
	if o.LARD == (LARDOptions{}) {
		return DefaultLARDOptions()
	}
	return o.LARD
}

// Factory builds one distributor over an environment. Factories must
// validate their options and return an error rather than panic: sweeps
// construct policies for machine-generated grid points.
type Factory func(env Env, opts Options) (Distributor, error)

var registry = struct {
	sync.RWMutex
	factories map[string]Factory
	aliases   map[string]string
	params    map[string][]spec.Param[Options]
}{
	factories: make(map[string]Factory),
	aliases:   make(map[string]string),
	params:    make(map[string][]spec.Param[Options]),
}

// Register adds a named policy constructor to the registry. It panics on a
// duplicate name; registration happens from package init functions, so a
// collision is a programming error.
func Register(name string, f Factory) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[name]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry.factories[name] = f
}

// RegisterAlias makes alias resolve to the policy registered under name.
// Aliases are accepted by ParseSpec but not listed by Names;
// NamesAndAliases lists them marked with their targets.
func RegisterAlias(alias, name string) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.factories[alias]; dup {
		panic(fmt.Sprintf("policy: alias %q collides with a registered policy", alias))
	}
	registry.aliases[alias] = name
}

// Names returns every registered policy name, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.factories))
	for name := range registry.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("traditional", func(env Env, _ Options) (Distributor, error) {
		return NewFewestConnections(env), nil
	})
	RegisterAlias("trad", "traditional")
	Register("lard", func(env Env, o Options) (Distributor, error) {
		l := o.lard()
		if err := l.Validate(); err != nil {
			return nil, err
		}
		return NewLARD(env, l, NewFileSets(o.Files, o.Requests)), nil
	})
	Register("lard-basic", func(env Env, o Options) (Distributor, error) {
		l := o.lard()
		l.Replication = false
		if err := l.Validate(); err != nil {
			return nil, err
		}
		return NewLARD(env, l, NewFileSets(o.Files, o.Requests)), nil
	})
	Register("lard-dispatch", func(env Env, o Options) (Distributor, error) {
		l := o.lard()
		if err := l.Validate(); err != nil {
			return nil, err
		}
		query := o.DispatchQuerySec
		if query <= 0 {
			query = 0.0001
		}
		return NewDispatchLARD(env, l, query, NewFileSets(o.Files, o.Requests)), nil
	})
	Register("hashing", func(env Env, _ Options) (Distributor, error) {
		return NewHashing(env), nil
	})
	Register("random", func(env Env, o Options) (Distributor, error) {
		seed := o.Seed
		if seed == 0 {
			seed = 7
		}
		return NewRandom(env, seed), nil
	})
	Register("cached-dns", func(env Env, o Options) (Distributor, error) {
		ttl := o.DNSTTL
		if ttl <= 0 {
			ttl = 50
		}
		return NewCachedDNS(env, ttl), nil
	})

	RegisterParams("lard", lardParams()...)
	RegisterParams("lard-basic", lardParams()[:4]...) // replication is forced off
	RegisterParams("lard-dispatch", append(lardParams(),
		spec.Param[Options]{Key: "query", Kind: spec.Float, Min: 0, Max: 1, MinExcl: true,
			Set: func(o *Options, v float64) { o.DispatchQuerySec = v }})...)
	RegisterParams("random",
		spec.Param[Options]{Key: "seed", Kind: spec.Int, Min: 1, Max: 1 << 53,
			Set: func(o *Options, v float64) { o.Seed = int64(v) }})
	RegisterParams("cached-dns",
		spec.Param[Options]{Key: "ttl", Kind: spec.Int, Min: 1, Max: 1e9,
			Set: func(o *Options, v float64) { o.DNSTTL = int(v) }})
}

// lardParams declares the spec parameters shared by the LARD family. Each
// Set materializes the published defaults before overwriting one field,
// so "lard:thigh=80" keeps the default TLow rather than a zero one.
func lardParams() []spec.Param[Options] {
	set := func(f func(*LARDOptions, float64)) func(*Options, float64) {
		return func(o *Options, v float64) {
			l := o.lard()
			f(&l, v)
			o.LARD = l
		}
	}
	return []spec.Param[Options]{
		{Key: "tlow", Kind: spec.Int, Min: 1, Max: 1e6,
			Set: set(func(l *LARDOptions, v float64) { l.TLow = int(v) })},
		{Key: "thigh", Kind: spec.Int, Min: 1, Max: 1e6,
			Set: set(func(l *LARDOptions, v float64) { l.THigh = int(v) })},
		{Key: "shrink", Kind: spec.Float, Min: 0, Max: 1e6,
			Set: set(func(l *LARDOptions, v float64) { l.ShrinkAfter = v })},
		{Key: "batch", Kind: spec.Int, Min: 1, Max: 1e6,
			Set: set(func(l *LARDOptions, v float64) { l.UpdateBatch = int(v) })},
		{Key: "replication", Kind: spec.Bool,
			Set: set(func(l *LARDOptions, v float64) { l.Replication = v != 0 })},
	}
}
