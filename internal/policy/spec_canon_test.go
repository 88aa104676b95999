package policy

import (
	"strings"
	"testing"
)

// canonicalForms pins what ParseSpec makes of each input: the canonical
// String of the parsed spec, or "rejected". The inputs are the FuzzParseSpec
// corpus and seeds, the strings of spec_test.go, and edge cases of the value
// grammar (signs, leading zeros, hex floats, -0, bool spellings, bounds).
// Every row but one is what the parser printed before it moved onto package
// spec; that one, 2^53+1, used to be rounded to 2^53 and is now rejected.
var canonicalForms = []struct{ in, want string }{
	{"chash-d2", "chash-d"},
	{"chash:", "rejected"},
	{"chash:vnodes=128,load=1.25,d=2", "chash:vnodes=128,load=1.25,d=2"},
	{"lard:tlow=10,thigh=80,shrink=5,batch=2,replication=false", "lard:tlow=10,thigh=80,shrink=5,batch=2,replication=false"},
	{"chash:load=NaN", "rejected"},
	{"chash:vnodes", "rejected"},
	{"traditional:x=1", "rejected"},
	{"chash:d=17", "rejected"},
	{"chash:load=9", "rejected"},
	{"chash:load=1", "rejected"},
	{"chash:vnodes=5000", "rejected"},
	{"chash:d=2,d=3", "rejected"},
	{"chash:fanout=3", "rejected"},
	{" chash : vnodes = 64 ", "chash:vnodes=64"},
	{"chash:vnodes=64,load=1.25,d=2,prox=true", "chash:vnodes=64,load=1.25,d=2,prox=true"},
	{"lard:tlow=10,thigh=80", "lard:tlow=10,thigh=80"},
	{"lard-dispatch:query=0.0002", "lard-dispatch:query=0.0002"},
	{"random:seed=99", "random:seed=99"},
	{"cached-dns:ttl=10", "cached-dns:ttl=10"},
	{"trad", "traditional"},
	{"lard:thigh=80", "lard:thigh=80"},
	{"", "rejected"},
	{"   ", "rejected"},
	{"nope", "rejected"},
	{"nope:vnodes=1", "rejected"},
	{"chash:=1", "rejected"},
	{"traditional:vnodes=1", "rejected"},
	{"chash:vnodes=0", "rejected"},
	{"chash:vnodes=1e2", "rejected"},
	{"chash:vnodes=12abc", "rejected"},
	{"chash:load=nan", "rejected"},
	{"chash:load=+Inf", "rejected"},
	{"chash:d=0", "rejected"},
	{"chash:prox=maybe", "rejected"},
	{"lard:tlow=0", "rejected"},
	{"chash:vnodes=" + strings.Repeat("1", 600), "rejected"},
	{"lard-dispatch:query=0.0001", "lard-dispatch:query=0.0001"},
	{"random:seed=7", "random:seed=7"},
	{"cached-dns:ttl=50", "cached-dns:ttl=50"},
	{"chash:prox=true", "chash:prox=true"},
	{",,,", "rejected"},
	{"random:seed=-1", "rejected"},
	{"random:seed=9007199254740993", "rejected"}, // 2^53+1: was rounded to 2^53
	{"random:seed=9007199254740992", "random:seed=9007199254740992"},
	{"random:seed=9223372036854775807", "rejected"},
	{"random:seed=9223372036854775808", "rejected"},
	{"random:seed=0", "rejected"},
	{"random:seed=1", "random:seed=1"},
	{"random:seed=+5", "random:seed=5"},
	{"random:seed=007", "random:seed=7"},
	{"chash:prox=1", "chash:prox=true"},
	{"chash:prox=T", "chash:prox=true"},
	{"chash:prox=FALSE", "chash:prox=false"},
	{"chash:prox=0", "chash:prox=false"},
	{"chash:prox=", "rejected"},
	{"chash:load=1.0000001", "chash:load=1.0000001"},
	{"chash:load=8", "chash:load=8"},
	{"chash:load=8.0000001", "rejected"},
	{"chash:load=0x1p1", "chash:load=2"},
	{"chash:load=1.25e0", "chash:load=1.25"},
	{"chash:load=-Inf", "rejected"},
	{"chash:load=2 ", "chash:load=2"},
	{"chash:load= 2", "chash:load=2"},
	{"chash:vnodes=+64", "chash:vnodes=64"},
	{"chash:vnodes=064", "chash:vnodes=64"},
	{"chash:vnodes=-0", "rejected"},
	{"chash:vnodes=4096", "chash:vnodes=4096"},
	{"chash:vnodes=64,", "rejected"},
	{"chash :vnodes=64", "chash:vnodes=64"},
	{"chash:vnodes=64 , d = 2", "chash:vnodes=64,d=2"},
	{"chash:,vnodes=64", "rejected"},
	{"chash:vnodes==64", "rejected"},
	{"chash:vnodes=6 4", "rejected"},
	{"chash:  ", "rejected"},
	{":vnodes=64", "rejected"},
	{":", "rejected"},
	{"trad:", "rejected"},
	{"traditional", "traditional"},
	{"hashing", "hashing"},
	{"chash-bounded:load=1.5", "chash-bounded:load=1.5"},
	{"chash-d2:d=3", "chash-d:d=3"},
	{"lard:shrink=0", "lard:shrink=0"},
	{"lard:shrink=-0", "lard:shrink=-0"},
	{"lard:shrink=1e6", "lard:shrink=1e+06"},
	{"lard:shrink=1e-300", "lard:shrink=1e-300"},
	{"lard:shrink=1000000.5", "rejected"},
	{"lard:replication=true", "lard:replication=true"},
	{"lard-basic:replication=true", "rejected"},
	{"lard-basic:tlow=5,batch=3", "lard-basic:tlow=5,batch=3"},
	{"lard-weighted:thigh=90", "lard-weighted:thigh=90"},
	{"cached-dns:ttl=1000000000", "cached-dns:ttl=1000000000"},
	{"cached-dns:ttl=1000000001", "rejected"},
	{"lard-dispatch:query=1", "lard-dispatch:query=1"},
	{"lard-dispatch:query=0", "rejected"},
	{"lard-dispatch:query=1e-9,tlow=3", "lard-dispatch:query=1e-09,tlow=3"},
	{"chash:d=16,vnodes=1,load=7.999,prox=false", "chash:d=16,vnodes=1,load=7.999,prox=false"},
	{"wlc", "wlc"},
	{"random", "random"},
}

func TestParseSpecCanonicalForms(t *testing.T) {
	for _, c := range canonicalForms {
		got := "rejected"
		if s, err := ParseSpec(c.in); err == nil {
			got = s.String()
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
