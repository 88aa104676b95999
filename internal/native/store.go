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
	"fmt"
	"math/rand"
	"sort"
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
	m := make(map[string][]byte, files)
	for i := 0; i < files; i++ {
		size := int(avgKB * 1024 * (0.25 + rng.ExpFloat64()))
		if size < 64 {
			size = 64
		}
		body := make([]byte, size)
		for j := range body {
			body[j] = byte('a' + (i+j)%26)
		}
		m[fmt.Sprintf("/f/%d", i)] = body
	}
	return NewMemStore(m)
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
