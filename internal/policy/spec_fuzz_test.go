package policy

import (
	"strings"
	"testing"

	specgrammar "repro/internal/spec"
)

// FuzzParseSpec drives the policy-spec parser with hostile input and checks
// the invariants every accepted spec must satisfy: a known canonical name,
// valid typed values (each re-parsed from its canonical text by its Param),
// and a canonical String() form that re-parses to the same spec — the
// parser can never accept something it cannot round-trip.
func FuzzParseSpec(f *testing.F) {
	f.Add("chash:vnodes=128,load=1.25,d=2")
	f.Add("chash-d2")
	f.Add("trad")
	f.Add("lard:tlow=10,thigh=80,shrink=5,batch=2,replication=false")
	f.Add("lard-dispatch:query=0.0001")
	f.Add("random:seed=7")
	f.Add("cached-dns:ttl=50")
	f.Add("chash:prox=true")
	f.Add("chash:")
	f.Add("chash:vnodes")
	f.Add("chash:vnodes=0")
	f.Add("chash:vnodes=5000")
	f.Add("chash:load=1")
	f.Add("chash:load=9")
	f.Add("chash:d=17")
	f.Add("chash:fanout=3")
	f.Add("chash:d=2,d=3")
	f.Add("traditional:x=1")
	f.Add(" chash : vnodes = 64 ")
	f.Add("no-such-policy")
	f.Add(",,,")
	f.Add("chash:load=NaN")
	f.Add("chash:load=+Inf")
	f.Add("random:seed=-1")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if _, known := registry.factories[spec.Name]; !known {
			t.Fatalf("accepted %q with unknown canonical name %q", s, spec.Name)
		}
		if len(spec.String()) > specgrammar.MaxLen+16 {
			t.Fatalf("accepted %q with oversized canonical form", s)
		}
		for _, a := range spec.args {
			if v, err := a.param.Parse(a.param.Format(a.val)); err != nil || v != a.val {
				t.Fatalf("accepted %q with %s=%v, which does not re-parse to itself: %v", s, a.param.Key, a.val, err)
			}
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q does not re-parse: %v", spec, s, err)
		}
		if again.String() != spec.String() {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", s, spec, again)
		}
		if strings.TrimSpace(s) != "" {
			// Building from the accepted spec must never panic; factory
			// errors (cross-field validation) are fine.
			_, _ = New(spec, newFakeEnv(4))
		}
	})
}
