package policy

import (
	"sort"
	"strings"
	"testing"
)

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	want := []string{"cached-dns", "hashing", "lard", "lard-basic", "lard-dispatch", "random", "traditional"}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("Names() missing %q: %v", w, names)
		}
	}
	if got["trad"] {
		t.Errorf("alias %q must not appear in Names(): %v", "trad", names)
	}
}

// A Spec assembled by hand skips ParseSpec's name check; Build has its own.
func TestUnknownNameListsValid(t *testing.T) {
	_, err := Spec{Name: "no-such-policy"}.Build(nil, Options{})
	if err == nil {
		t.Fatal("unknown policy must error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-policy"`) || !strings.Contains(msg, "valid:") {
		t.Errorf("error should name the bad policy and list valid ones: %v", err)
	}
	for _, n := range Names() {
		if !strings.Contains(msg, n) {
			t.Errorf("error listing missing %q: %v", n, err)
		}
	}
}

func TestAliasResolves(t *testing.T) {
	env := newFakeEnv(4)
	d, err := New(MustParseSpec("trad"), env)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "traditional" {
		t.Errorf("alias built %q", d.Name())
	}
}

func TestFactoriesBuildTheRightDistributors(t *testing.T) {
	env := newFakeEnv(4)
	for name, want := range map[string]string{
		"traditional":   "traditional",
		"lard":          "lard",
		"lard-basic":    "lard-basic",
		"lard-dispatch": "lard-dispatch",
		"hashing":       "hashing",
		"random":        "random",
		"cached-dns":    "cached-dns",
	} {
		d, err := New(MustParseSpec(name), env)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if d.Name() != want {
			t.Errorf("%s: built %q, want %q", name, d.Name(), want)
		}
	}
}

func TestLARDBasicDisablesReplication(t *testing.T) {
	opts := Options{LARD: DefaultLARDOptions()}
	opts.LARD.Replication = true
	d, err := MustParseSpec("lard-basic").Build(newFakeEnv(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "lard-basic" {
		t.Errorf("lard-basic must force Replication=false, built %q", d.Name())
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register must panic")
		}
	}()
	Register("traditional", func(env Env, opts Options) (Distributor, error) {
		return nil, nil
	})
}

func TestLARDOptionsValidate(t *testing.T) {
	good := DefaultLARDOptions()
	if err := good.Validate(); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
	bad := good
	bad.THigh = good.TLow - 1
	if bad.Validate() == nil {
		t.Error("THigh < TLow must fail validation")
	}
}
