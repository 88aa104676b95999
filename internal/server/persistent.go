package server

import (
	"math"
	"math/rand"
)

// Persistent-connection (HTTP/1.1) support. Section 4 of the paper notes
// that L2S and LARD handle persistent connections "by slightly modifying
// the algorithms" along the lines of Aron et al.: a connection stays bound
// to the node that accepted its first request (the owner), and requests
// whose content is cached elsewhere are served by back-end forwarding —
// the caching node reads the file and ships it across the cluster network
// to the owner, which transmits it to the client. The client-facing
// connection never moves, so hand-off happens once per connection at most,
// while content locality is preserved per request at the cost of an
// internal data transfer. A connection is one pooled requestJob (run.go)
// that serves trace requests [first, end) in order.

// geometricLength draws a connection length with the given mean (at least
// 1 request).
func geometricLength(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := rng.Float64()
	k := 1 + int(math.Floor(math.Log(1-u)/math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}
