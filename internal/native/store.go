// Package native is a working implementation of the L2S server over real
// HTTP — the "native version of our server" the paper's conclusion
// announces. Each node is an http.Server with its own main-memory cache,
// its own view of cluster load, and its own replica of the file server
// sets; nodes gossip load changes and server-set modifications over HTTP
// control endpoints and hand requests off to each other over persistent
// framed connections (handoff.go: the user-level stand-in for TCP hand-off).
//
// The package is self-contained and uses only the standard library; the
// cluster runs happily inside one process (each node on its own loopback
// port), which is how cmd/l2sd and the tests use it.
package native

import (
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/cache"
)

// MemStore is a node's backing content source — the distributed file system
// of the paper's cluster, reduced to an immutable in-memory catalogue: file
// i, its cache.FileID, is served at /f/<i>. The table is never written after
// construction, so concurrent reads need no lock.
type MemStore struct {
	bodies [][]byte
}

// NewMemStore builds a store serving bodies[i] at /f/<i>. The store keeps
// the slice: neither it nor the bodies may be written afterwards.
func NewMemStore(bodies [][]byte) *MemStore { return &MemStore{bodies: bodies} }

// SyntheticStore generates a store with the given number of files whose
// sizes follow the same popular-files-are-smaller shape as the trace
// generator: file i is named /f/<i> and sized around avgKB.
func SyntheticStore(files int, avgKB float64, seed int64) *MemStore {
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int64, 0, max(files, 0))
	for range files {
		sizes = append(sizes, max(64, int64(avgKB*1024*(0.25+rng.ExpFloat64()))))
	}
	return syntheticStore(sizes)
}

// syntheticStore serves a catalog of the given sizes, byte j of file i being
// 'a'+(i+j)%26. That content is a function of (id, offset), so every body is
// a view of one read-only alphabet run as long as the largest file, and the
// store does not grow with the catalog's bytes. Each view's capacity ends at
// its length, so an append to a body copies instead of writing into the
// shared run.
func syntheticStore(sizes []int64) *MemStore {
	var longest int64
	for _, size := range sizes {
		longest = max(longest, size)
	}
	alphabet := make([]byte, longest+26)
	for j := range alphabet {
		alphabet[j] = byte('a' + j%26)
	}
	bodies := make([][]byte, len(sizes))
	for i, size := range sizes {
		from := int64(i % 26)
		bodies[i] = alphabet[from : from+size : from+size]
	}
	return NewMemStore(bodies)
}

// Len returns the number of files in the catalogue.
func (s *MemStore) Len() int { return len(s.bodies) }

// Body returns the content of file id, which must be in [0, Len()).
func (s *MemStore) Body(id cache.FileID) []byte { return s.bodies[id] }

// ID resolves a path to its file: only the canonical /f/<i> with i < Len()
// names one — decimal digits, no sign, no leading zero.
func (s *MemStore) ID(path string) (cache.FileID, bool) {
	digits, ok := strings.CutPrefix(path, "/f/")
	if !ok || digits == "" || (digits[0] == '0' && len(digits) > 1) {
		return 0, false
	}
	i := 0
	for _, d := range []byte(digits) {
		if d < '0' || d > '9' {
			return 0, false
		}
		// i stays below Len() after every digit, so this cannot overflow.
		if i = 10*i + int(d-'0'); i >= len(s.bodies) {
			return 0, false
		}
	}
	return cache.FileID(i), true
}

// Get returns the content served at path, or false if it names no file.
func (s *MemStore) Get(path string) ([]byte, bool) {
	id, ok := s.ID(path)
	if !ok {
		return nil, false
	}
	return s.bodies[id], true
}

// Paths lists every file's path, in FileID order.
func (s *MemStore) Paths() []string {
	out := make([]string, len(s.bodies))
	for i := range out {
		out[i] = "/f/" + strconv.Itoa(i)
	}
	return out
}
