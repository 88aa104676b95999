package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/spec"
)

// This file is the policy-spec API: the single string form in which every
// CLI and config names a distribution policy together with its tunables,
// replacing ad-hoc flag plumbing into the Options grab bag. A spec reads
//
//	name[:key=value,key=value,...]
//
// e.g. "l2s:T=30,delta=8" or "chash:vnodes=256,load=1.25,d=2". The accepted
// keys are typed and range-checked per policy family: each Register'ed
// factory declares its parameters with RegisterParams as spec.Params, the
// grammar trace.ParseGenSpec shares. Parsing never constructs a policy;
// Spec.Build (or New) applies the parsed assignments on top of a
// caller-supplied Options baseline and invokes the registered factory, so
// a spec with no parameters is bit-identical to constructing the named
// policy directly.

// assignment is one parsed key=value pair of a Spec.
type assignment struct {
	param spec.Param[Options]
	val   float64
}

// Spec is a parsed policy spec: the canonical policy name (aliases
// resolved) plus its validated parameter assignments, ready to build
// distributors any number of times.
type Spec struct {
	// Name is the canonical registered policy name.
	Name string

	args []assignment
}

// RegisterParams declares the spec parameters the named policy accepts.
// Like Register it panics on programming errors — an unregistered name, a
// duplicate key, or a missing Set — because registration happens in init
// functions.
func RegisterParams(name string, params ...spec.Param[Options]) {
	registry.Lock()
	defer registry.Unlock()
	if _, ok := registry.factories[name]; !ok {
		panic(fmt.Sprintf("policy: RegisterParams(%q) before Register", name))
	}
	if _, dup := registry.params[name]; dup {
		panic(fmt.Sprintf("policy: duplicate RegisterParams(%q)", name))
	}
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if p.Key == "" || p.Set == nil {
			panic(fmt.Sprintf("policy: %q declares a parameter without key or Set", name))
		}
		if seen[p.Key] {
			panic(fmt.Sprintf("policy: %q declares parameter %q twice", name, p.Key))
		}
		seen[p.Key] = true
	}
	registry.params[name] = params
}

// ParseSpec parses and validates a policy spec without constructing a
// policy. Unknown names, unknown keys, malformed values, and out-of-range
// values are all errors that name every accepted alternative.
func ParseSpec(s string) (Spec, error) {
	name, pairs, err := spec.Split(s)
	if err != nil {
		return Spec{}, fmt.Errorf("policy: %w", err)
	}
	registry.RLock()
	if target, ok := registry.aliases[name]; ok {
		name = target
	}
	_, known := registry.factories[name]
	params := registry.params[name]
	registry.RUnlock()
	if !known {
		return Spec{}, fmt.Errorf("policy: unknown policy %q (valid: %s)",
			name, strings.Join(NamesAndAliases(), ", "))
	}
	ps := Spec{Name: name}
	for _, kv := range pairs {
		p, err := spec.Find(params, kv.Key)
		if err != nil {
			return Spec{}, fmt.Errorf("policy: %s has %w", name, err)
		}
		v, err := p.Parse(kv.Value)
		if err != nil {
			return Spec{}, fmt.Errorf("policy: %s parameter %w", name, err)
		}
		ps.args = append(ps.args, assignment{param: p, val: v})
	}
	return ps, nil
}

// MustParseSpec is ParseSpec for specs known valid at compile time.
func MustParseSpec(s string) Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err.Error())
	}
	return spec
}

// String renders the spec canonically: the resolved name, then the
// assignments in their parsed order. ParseSpec(s.String()) reproduces s.
func (s Spec) String() string {
	if len(s.args) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	for i, a := range s.args {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(a.param.Key)
		b.WriteByte('=')
		b.WriteString(a.param.Format(a.val))
	}
	return b.String()
}

// Options applies the spec's assignments on top of a baseline Options and
// returns the result — what Build hands the registered factory. It is also
// the bridge for non-registry consumers (the native l2sd daemon) that need
// the parsed values without constructing a simulator policy.
func (s Spec) Options(base Options) Options {
	for _, a := range s.args {
		a.param.Set(&base, a.val)
	}
	return base
}

// Build constructs the spec's policy over env, applying its parameters on
// top of the given Options baseline. A spec with no parameters calls the
// factory with the baseline untouched.
func (s Spec) Build(env Env, base Options) (Distributor, error) {
	registry.RLock()
	f, ok := registry.factories[s.Name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (valid: %s)",
			s.Name, strings.Join(NamesAndAliases(), ", "))
	}
	return f(env, s.Options(base))
}

// New constructs the distribution policy a parsed spec describes over env,
// with every un-set tunable at its published default; callers that
// assemble an Options baseline themselves use Spec.Build.
func New(spec Spec, env Env) (Distributor, error) {
	return spec.Build(env, Options{})
}

// NamesAndAliases returns every accepted policy name, sorted: the canonical
// names plus each alias marked with its target, for error messages and CLI
// help that must advertise everything a -policy flag accepts.
func NamesAndAliases() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.factories)+len(registry.aliases))
	for name := range registry.factories {
		names = append(names, name)
	}
	for alias, target := range registry.aliases {
		names = append(names, fmt.Sprintf("%s (= %s)", alias, target))
	}
	sort.Strings(names)
	return names
}

// SplitSpecs splits a comma-separated list of policy specs, re-attaching
// the comma-separated parameters inside each spec: a segment of the form
// key=value (no colon) continues the previous spec rather than starting a
// new one, so "chash:vnodes=64,load=1.25,l2s" is two specs. Policy names
// never contain '='.
func SplitSpecs(s string) []string {
	var specs []string
	for _, seg := range strings.Split(s, ",") {
		if len(specs) > 0 && strings.Contains(seg, "=") && !strings.Contains(seg, ":") {
			specs[len(specs)-1] += "," + seg
			continue
		}
		specs = append(specs, seg)
	}
	return specs
}
