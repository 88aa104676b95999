package policy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the policy-spec API: the single string form in which every
// CLI and config names a distribution policy together with its tunables,
// replacing ad-hoc flag plumbing into the Options grab bag. A spec reads
//
//	name[:key=value,key=value,...]
//
// e.g. "l2s:T=30,delta=8" or "chash:vnodes=256,load=1.25,d=2". The accepted
// keys are typed and range-checked per policy family: each Register'ed
// factory declares its parameters with RegisterParams, exactly as
// server.ParseProfiles declares the hardware grammar. Parsing never
// constructs a policy; Spec.Build (or New) applies the parsed assignments
// on top of a caller-supplied Options baseline and invokes the registered
// factory, so a spec with no parameters is bit-identical to constructing
// the named policy directly.

// maxSpecLen bounds the accepted spec text; real specs are tens of bytes,
// and the cap keeps hostile inputs (fuzzing, config injection) cheap.
const maxSpecLen = 512

// ParamKind is the type of one spec parameter's value.
type ParamKind int

// The three value shapes a parameter can take.
const (
	IntParam   ParamKind = iota // decimal integer
	FloatParam                  // finite decimal float
	BoolParam                   // true/false/1/0
)

// Param declares one typed, range-checked key a policy family accepts in a
// spec. Values travel as float64 internally (exact for every in-range int
// and bool); Apply writes the validated value into the Options the factory
// will receive.
type Param struct {
	Key  string
	Kind ParamKind
	Doc  string

	// Min and Max bound Int and Float values inclusively; MinExcl makes the
	// lower bound strict (e.g. a bounded-load factor must exceed 1).
	Min, Max float64
	MinExcl  bool

	Apply func(o *Options, v float64)
}

// assignment is one parsed key=value pair of a Spec.
type assignment struct {
	param Param
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
// duplicate key, or a missing Apply — because registration happens in init
// functions.
func RegisterParams(name string, params ...Param) {
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
		if p.Key == "" || p.Apply == nil {
			panic(fmt.Sprintf("policy: %q declares a parameter without key or Apply", name))
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
	if len(s) > maxSpecLen {
		return Spec{}, fmt.Errorf("policy: spec longer than %d bytes", maxSpecLen)
	}
	nameText, paramText, hasParams := strings.Cut(s, ":")
	name := strings.TrimSpace(nameText)
	if name == "" {
		return Spec{}, fmt.Errorf("policy: empty policy name in spec %q", s)
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
	spec := Spec{Name: name}
	if !hasParams {
		return spec, nil
	}
	if strings.TrimSpace(paramText) == "" {
		return Spec{}, fmt.Errorf("policy: spec %q has an empty parameter list", s)
	}
	for _, kv := range strings.Split(paramText, ",") {
		keyText, valText, ok := strings.Cut(kv, "=")
		key := strings.TrimSpace(keyText)
		if !ok || key == "" {
			return Spec{}, fmt.Errorf("policy: parameter %q in spec %q is not key=value", kv, s)
		}
		p, found := findParam(params, key)
		if !found {
			return Spec{}, fmt.Errorf("policy: %s has no parameter %q (accepted: %s)",
				name, key, paramKeys(params))
		}
		for _, a := range spec.args {
			if a.param.Key == key {
				return Spec{}, fmt.Errorf("policy: parameter %q repeated in spec %q", key, s)
			}
		}
		v, err := p.parseValue(name, strings.TrimSpace(valText))
		if err != nil {
			return Spec{}, err
		}
		spec.args = append(spec.args, assignment{param: p, val: v})
	}
	return spec, nil
}

// MustParseSpec is ParseSpec for specs known valid at compile time.
func MustParseSpec(s string) Spec {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err.Error())
	}
	return spec
}

func findParam(params []Param, key string) (Param, bool) {
	for _, p := range params {
		if p.Key == key {
			return p, true
		}
	}
	return Param{}, false
}

func paramKeys(params []Param) string {
	if len(params) == 0 {
		return "none"
	}
	keys := make([]string, len(params))
	for i, p := range params {
		keys[i] = p.Key
	}
	return strings.Join(keys, ", ")
}

// parseValue converts and range-checks one parameter value.
func (p Param) parseValue(policy, text string) (float64, error) {
	switch p.Kind {
	case BoolParam:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return 0, fmt.Errorf("policy: %s parameter %s=%q is not a bool", policy, p.Key, text)
		}
		if b {
			return 1, nil
		}
		return 0, nil
	case IntParam:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("policy: %s parameter %s=%q is not an integer", policy, p.Key, text)
		}
		return p.checkRange(policy, float64(n))
	case FloatParam:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
			return 0, fmt.Errorf("policy: %s parameter %s=%q is not a finite number", policy, p.Key, text)
		}
		return p.checkRange(policy, v)
	}
	return 0, fmt.Errorf("policy: %s parameter %s has unknown kind %d", policy, p.Key, p.Kind)
}

func (p Param) checkRange(policy string, v float64) (float64, error) {
	low := v > p.Min || (!p.MinExcl && v == p.Min)
	if !low || v > p.Max {
		open, lo := "[", strconv.FormatFloat(p.Min, 'g', -1, 64)
		if p.MinExcl {
			open = "("
		}
		return 0, fmt.Errorf("policy: %s parameter %s=%s out of range %s%s, %s]",
			policy, p.Key, strconv.FormatFloat(v, 'g', -1, 64),
			open, lo, strconv.FormatFloat(p.Max, 'g', -1, 64))
	}
	return v, nil
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
		switch a.param.Kind {
		case BoolParam:
			b.WriteString(strconv.FormatBool(a.val != 0))
		case IntParam:
			b.WriteString(strconv.FormatInt(int64(a.val), 10))
		default:
			b.WriteString(strconv.FormatFloat(a.val, 'g', -1, 64))
		}
	}
	return b.String()
}

// Options applies the spec's assignments on top of a baseline Options and
// returns the result — what Build hands the registered factory. It is also
// the bridge for non-registry consumers (the native l2sd daemon) that need
// the parsed values without constructing a simulator policy.
func (s Spec) Options(base Options) Options {
	for _, a := range s.args {
		a.param.Apply(&base, a.val)
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
