package trace

import (
	"testing"

	specgrammar "repro/internal/spec"
)

// FuzzParseGenSpec drives the generation-spec parser with hostile input and
// checks the invariants every accepted spec must satisfy: a known mode, a
// canonical SpecString that re-parses to the identical spec (and is itself
// a fixed point), and — for small accepted specs — a Generate call that
// either errors cleanly or produces a trace passing Validate.
func FuzzParseGenSpec(f *testing.F) {
	f.Add("stationary:files=5000,filekb=20,reqs=40000,reqkb=12,alpha=0.9,localp=0.3,seed=21")
	f.Add("churn:files=2000,filekb=16,reqs=5000,lifetime=10,horizon=100,docrate=18,seed=3")
	f.Add("churn:files=500,filekb=8,reqs=1000,shape=1.6")
	f.Add("diurnal:files=1000,filekb=20,reqs=5000,reqkb=12,alpha=0.9,amp=0.7,periods=3")
	f.Add("flash:files=1000,filekb=20,reqs=5000,reqkb=12,alpha=0.9,fstart=0.5,fdur=0.1,ffrac=0.8")
	f.Add("calgary")
	f.Add("clarknet:reqs=1000")
	f.Add(" nasa : clients = 50 ")
	f.Add("flash:name=viral,files=100,filekb=4,reqs=500,reqkb=4")
	f.Add("churn:docreqs=40,files=200,filekb=8,reqs=400")
	f.Add("stationary:files=1,files=2")
	f.Add("stationary:localp=1")
	f.Add("stationary:alpha=NaN")
	f.Add("stationary:alpha=+Inf")
	f.Add("churn:reqkb=12")
	f.Add("churn:shape=0.5")
	f.Add("diurnal:amp=1")
	f.Add("flash:fstart=0.99,fdur=0.5")
	f.Add("stationary:seed=-9223372036854775808")
	f.Add("no-such-mode")
	f.Add(",,,")
	f.Add("stationary:")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseGenSpec(s)
		if err != nil {
			return
		}
		switch spec.Mode {
		case ModeStationary, ModeChurn, ModeDiurnal, ModeFlash:
		default:
			t.Fatalf("accepted %q with unknown mode %q", s, spec.Mode)
		}
		canon := spec.SpecString()
		if len(canon) > specgrammar.MaxLen+64 {
			t.Fatalf("accepted %q with oversized canonical form", s)
		}
		again, err := ParseGenSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q does not re-parse: %v", canon, s, err)
		}
		if again != spec {
			t.Fatalf("canonical form not faithful: %q -> %+v -> %q -> %+v", s, spec, canon, again)
		}
		if again.SpecString() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, again.SpecString())
		}
		if generableInFuzz(spec) {
			// Generation must never panic on an accepted small spec; clean
			// errors (e.g. a churn realization shorter than Requests) are
			// fine, but a produced trace must validate.
			tr, err := Generate(spec)
			if err == nil {
				if verr := tr.Validate(); verr != nil {
					t.Fatalf("accepted %q generated an invalid trace: %v", s, verr)
				}
			}
		}
	})
}

// generableInFuzz bounds the work a fuzz iteration may do: small catalogs
// and streams, bounded churn populations, and no near-1 Pareto shapes
// (their infinite-variance weights can make single documents enormous).
func generableInFuzz(s GenSpec) bool {
	if s.Files > 2000 || s.Requests > 2000 || s.Clients > 2000 {
		return false
	}
	if s.Mode == ModeChurn {
		if s.DocMeanReqs > 50 {
			return false
		}
		if s.WeightShape != 0 && s.WeightShape < 1.5 {
			return false
		}
		if s.DocRate != 0 && s.Horizon != 0 && s.DocRate*s.Horizon > 5000 {
			return false
		}
	}
	return true
}
