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
	"sort"
	"strconv"
)

// Store is a node's backing content source — the distributed file system
// of the paper's cluster, reduced to an interface. Implementations must be
// safe for concurrent use.
type Store interface {
	// Get returns the content of a file, or false if it does not exist.
	Get(path string) ([]byte, bool)
	// Paths lists all stored paths, for catalog endpoints.
	Paths() []string
}

// MemStore is an immutable in-memory Store: its map is never written after
// construction, so concurrent reads need no lock.
type MemStore struct {
	files map[string][]byte
}

// NewMemStore builds a store from a path-to-content map.
func NewMemStore(files map[string][]byte) *MemStore {
	copied := make(map[string][]byte, len(files))
	for k, v := range files {
		copied[k] = v
	}
	return &MemStore{files: copied}
}

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

// syntheticStore serves a catalog of the given sizes as /f/<i>, byte j of
// file i being 'a'+(i+j)%26. That content is a function of (id, offset), so
// every body is a view of one read-only alphabet run as long as the largest
// file, and the store does not grow with the catalog's bytes. Each view's
// capacity ends at its length, so an append to a body copies instead of
// writing into the shared run.
func syntheticStore(sizes []int64) *MemStore {
	var longest int64
	for _, size := range sizes {
		longest = max(longest, size)
	}
	alphabet := make([]byte, longest+26)
	for j := range alphabet {
		alphabet[j] = byte('a' + j%26)
	}
	files := make(map[string][]byte, len(sizes))
	for i, size := range sizes {
		from := int64(i % 26)
		files["/f/"+strconv.Itoa(i)] = alphabet[from : from+size : from+size]
	}
	return NewMemStore(files)
}

// Get implements Store.
func (s *MemStore) Get(path string) ([]byte, bool) {
	b, ok := s.files[path]
	return b, ok
}

// Paths implements Store.
func (s *MemStore) Paths() []string {
	out := make([]string, 0, len(s.files))
	for k := range s.files {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
