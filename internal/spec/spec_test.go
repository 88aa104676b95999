package spec

import (
	"errors"
	"strings"
	"testing"
)

// The fuzz targets of the policy and generation grammars cover splitting,
// every Kind and inclusive bounds; this pins a strict upper bound at its
// edge, and a Check that replaces the interval test rather than adding to it.
func TestParamDomain(t *testing.T) {
	errOdd := errors.New("must be even")
	even := func(v float64) error {
		if int(v)%2 != 0 {
			return errOdd
		}
		return nil
	}
	for _, c := range []struct {
		p    Param[struct{}]
		text string
		ok   bool
	}{
		{Param[struct{}]{Key: "f", Max: 1, MaxExcl: true}, "0.999", true},
		{Param[struct{}]{Key: "f", Max: 1, MaxExcl: true}, "1", false},
		{Param[struct{}]{Key: "f", Max: 1}, "1", true},
		// Check alone decides: 4 lies outside [0, 1] and is accepted.
		{Param[struct{}]{Key: "n", Kind: Int, Max: 1, Check: even}, "4", true},
		{Param[struct{}]{Key: "n", Kind: Int, Max: 1, Check: even}, "3", false},
	} {
		_, err := c.p.Parse(c.text)
		if (err == nil) != c.ok {
			t.Errorf("%s=%s (MaxExcl %v, Check %v): err %v, want ok=%v",
				c.p.Key, c.text, c.p.MaxExcl, c.p.Check != nil, err, c.ok)
		}
		if c.p.Check != nil && !c.ok && !errors.Is(err, errOdd) {
			t.Errorf("%s=%s: error %v does not wrap the Check error", c.p.Key, c.text, err)
		}
	}
}

// `make cover` measures each package by its own tests, so this one pass over
// Split's rejections, Find's key list and Format keeps the package above the
// floor; the policy and trace canonical-form tables pin them in depth.
func TestSplitFindFormat(t *testing.T) {
	head, pairs, err := Split(" m : a = 1 ,b=x=y")
	if err != nil || head != "m" || len(pairs) != 2 || pairs[0] != (Pair{"a", "1"}) || pairs[1] != (Pair{"b", "x=y"}) {
		t.Errorf("Split = %q, %v, %v", head, pairs, err)
	}
	for _, bad := range []string{" :a=1", "m:", "m: ", "m:a", "m:=1", "m:a=1,a=2", "m:" + strings.Repeat("a", MaxLen)} {
		if _, _, err := Split(bad); err == nil {
			t.Errorf("Split(%q) accepted", bad)
		}
	}
	params := []Param[struct{}]{{Key: "n", Kind: Int, Max: 9}, {Key: "b", Kind: Bool}}
	if _, err := Find(params, "x", "name"); err == nil || !strings.Contains(err.Error(), "[name n b]") {
		t.Errorf("Find error %v does not list [name n b]", err)
	}
	for _, c := range []struct{ key, in, out string }{{"n", "+07", "7"}, {"b", "T", "true"}, {"b", "0", "false"}} {
		p, _ := Find(params, c.key)
		if v, err := p.Parse(c.in); err != nil || p.Format(v) != c.out {
			t.Errorf("%s=%s formats as %q (%v), want %q", c.key, c.in, p.Format(v), err, c.out)
		}
	}
}
