package server

import (
	"strings"

	"repro/internal/policy"
)

// Distributors this package's tests build by hand are registered like any
// other policy and named by spec. Their names carry testPolicyPrefix, and
// the tests that pin every registered policy (the goldens, the allocation
// contract) skip them through publishedPolicies.
const (
	testPolicyPrefix = "test-"
	// unsizedPrefix + family builds family without the run's request
	// stream: its server-set table holds the whole catalogue.
	unsizedPrefix = testPolicyPrefix + "unsized-"
)

func init() {
	policy.Register(testPolicyPrefix+"fewest", func(env policy.Env, _ policy.Options) (policy.Distributor, error) {
		return policy.NewFewestConnections(env), nil
	})
	policy.Register(testPolicyPrefix+"boom", func(policy.Env, policy.Options) (policy.Distributor, error) {
		panic("boom")
	})
	for _, family := range indexedFamilies {
		spec := policy.MustParseSpec(family)
		policy.Register(unsizedPrefix+family, func(env policy.Env, o policy.Options) (policy.Distributor, error) {
			o.Requests = nil
			return spec.Build(env, o)
		})
	}
}

// publishedPolicies returns the registered policy names, without the ones
// this package's tests register.
func publishedPolicies() []string {
	var names []string
	for _, name := range policy.Names() {
		if !strings.HasPrefix(name, testPolicyPrefix) {
			names = append(names, name)
		}
	}
	return names
}
