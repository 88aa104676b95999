// Package spec is the head[:key=value,...] grammar of the policy and
// generation specs: Split cuts a spec into pairs, and a Param parses one
// typed, range-checked value and prints it back canonically.
package spec

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MaxLen bounds the accepted spec text; real specs are tens of bytes.
const MaxLen = 512

// Kind is the type of a parameter's value; the zero Kind is Float. Every
// kind travels as a float64, which holds each Int within ±2^53 exactly.
type Kind int

const (
	Float Kind = iota // finite decimal float
	Int               // decimal integer
	Bool              // any strconv.ParseBool form, carried as 0 or 1
)

// Param is one typed key of a spec that configures a T. Int and Float values
// lie in [Min, Max], MinExcl and MaxExcl making an end strict, unless Check
// replaces that test. Set stores a value in a T; Get reads it back.
type Param[T any] struct {
	Key              string
	Kind             Kind
	Min, Max         float64
	MinExcl, MaxExcl bool
	Check            func(v float64) error
	Set              func(t *T, v float64)
	Get              func(t T) float64
}

// Parse converts and validates one value, rejecting malformed, non-finite
// and inexact numbers and values outside the domain; errors start key=value.
func (p Param[T]) Parse(text string) (v float64, err error) {
	switch p.Kind {
	case Bool:
		var b bool
		if b, err = strconv.ParseBool(text); b {
			v = 1
		}
	case Int:
		var n int64
		if n, err = strconv.ParseInt(text, 10, 64); n > 1<<53 || n < -1<<53 {
			err = strconv.ErrRange
		}
		v = float64(n)
	default:
		v, err = strconv.ParseFloat(text, 64)
	}
	switch {
	case err != nil || math.IsNaN(v) || math.IsInf(v, 0):
		err = fmt.Errorf("is not %s", [...]string{Float: "a finite number", Int: "an integer within ±2^53", Bool: "a bool"}[p.Kind])
	case p.Check != nil:
		err = p.Check(v)
	case p.Kind != Bool && !((v > p.Min || !p.MinExcl && v == p.Min) && (v < p.Max || !p.MaxExcl && v == p.Max)):
		ends := map[bool]string{false: "[]", true: "()"} // by whether the bound is strict
		err = fmt.Errorf("is out of range %c%g, %g%c", ends[p.MinExcl][0], p.Min, p.Max, ends[p.MaxExcl][1])
	}
	if err != nil {
		return 0, fmt.Errorf("%s=%s %w", p.Key, text, err)
	}
	return v, nil
}

// Format renders a value as the canonical text Parse reads back to it.
func (p Param[T]) Format(v float64) string {
	switch p.Kind {
	case Bool:
		return strconv.FormatBool(v != 0)
	case Int:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Find returns the parameter named key, or an error listing the accepted
// keys: extra, the ones the caller handles itself, then those of params.
func Find[T any](params []Param[T], key string, extra ...string) (Param[T], error) {
	keys := append([]string(nil), extra...)
	for _, p := range params {
		if p.Key == key {
			return p, nil
		}
		keys = append(keys, p.Key)
	}
	return Param[T]{}, fmt.Errorf("no parameter %q (accepted: %v)", key, keys)
}

// Pair is one key=value assignment, both sides trimmed of spaces.
type Pair struct{ Key, Value string }

// Split cuts s into its head and its pairs in written order, rejecting text
// over MaxLen, an empty head or parameter list, and a bad or repeated pair.
func Split(s string) (head string, pairs []Pair, err error) {
	if len(s) > MaxLen {
		return "", nil, fmt.Errorf("spec longer than %d bytes", MaxLen)
	}
	head, list, hasList := strings.Cut(s, ":")
	if head = strings.TrimSpace(head); head == "" {
		return "", nil, fmt.Errorf("empty name in spec %q", s)
	}
	if !hasList {
		return head, nil, nil
	}
	if strings.TrimSpace(list) == "" {
		return "", nil, fmt.Errorf("spec %q has an empty parameter list", s)
	}
	for _, kv := range strings.Split(list, ",") {
		k, v, ok := strings.Cut(kv, "=")
		key := strings.TrimSpace(k)
		if !ok || key == "" {
			return "", nil, fmt.Errorf("parameter %q in spec %q is not key=value", kv, s)
		}
		for _, p := range pairs {
			if p.Key == key {
				return "", nil, fmt.Errorf("parameter %q repeated in spec %q", key, s)
			}
		}
		pairs = append(pairs, Pair{key, strings.TrimSpace(v)})
	}
	return head, pairs, nil
}
