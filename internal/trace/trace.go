// Package trace provides the WWW request workloads that drive the cluster
// simulator: a synthetic generator calibrated to the paper's Table 2 trace
// characteristics, a Common Log Format parser for users who have the real
// logs, workload characterization (the statistics of Table 2), and a binary
// on-disk format.
package trace

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/zipf"
)

// Trace is a server access log reduced to what the simulator consumes: a
// file catalog with sizes and an ordered stream of requests.
type Trace struct {
	Name  string
	Alpha float64 // nominal Zipf exponent used for generation (0 if parsed)

	// Sizes holds the response size in bytes for each file; the file's
	// cache.FileID is its index.
	Sizes []int64

	// Requests is the ordered stream of requested file ids.
	Requests []cache.FileID

	// Clients, when non-nil, holds the client id behind each request
	// (parallel to Requests). Client identity drives the cached-DNS
	// arrival model and HTTP/1.1 persistent connections; traces without
	// it behave as if every request came from a distinct client.
	Clients []int32
}

// NumFiles returns the catalog size.
func (t *Trace) NumFiles() int { return len(t.Sizes) }

// NumRequests returns the number of requests.
func (t *Trace) NumRequests() int { return len(t.Requests) }

// Size returns the size in bytes of the given file.
func (t *Trace) Size(id cache.FileID) int64 { return t.Sizes[id] }

// Validate checks internal consistency: every request must reference a
// cataloged file and every size must be positive.
func (t *Trace) Validate() error {
	for i, s := range t.Sizes {
		if s <= 0 {
			return fmt.Errorf("trace %s: file %d has non-positive size %d", t.Name, i, s)
		}
	}
	for i, r := range t.Requests {
		if int(r) < 0 || int(r) >= len(t.Sizes) {
			return fmt.Errorf("trace %s: request %d references unknown file %d", t.Name, i, r)
		}
	}
	if t.Clients != nil && len(t.Clients) != len(t.Requests) {
		return fmt.Errorf("trace %s: %d client ids for %d requests",
			t.Name, len(t.Clients), len(t.Requests))
	}
	return nil
}

// Client returns the client id of request i, or i itself (every request a
// distinct client) when the trace carries no client information.
func (t *Trace) Client(i int) int32 {
	if t.Clients == nil {
		return int32(i)
	}
	return t.Clients[i]
}

// Truncate returns a prefix of the trace with at most n requests, sharing
// the catalog. It is used to scale experiments down.
func (t *Trace) Truncate(n int) *Trace {
	if n >= len(t.Requests) {
		return t
	}
	short := &Trace{
		Name:     t.Name,
		Alpha:    t.Alpha,
		Sizes:    t.Sizes,
		Requests: t.Requests[:n],
	}
	if t.Clients != nil {
		short.Clients = t.Clients[:n]
	}
	return short
}

// Characteristics are the per-trace statistics the paper reports in
// Table 2, plus the working set size discussed in Section 5.1.
type Characteristics struct {
	Name            string
	CatalogFiles    int     // files in the catalog (Table 2's file count)
	NumFiles        int     // distinct files actually requested
	AvgFileKB       float64 // mean size over distinct requested files
	CatalogAvgKB    float64 // mean size over the whole catalog
	NumRequests     int
	AvgReqKB        float64 // mean size over requests
	Alpha           float64 // fitted Zipf exponent of the popularity distribution
	WorkingSetMB    float64 // total bytes of distinct requested files
	CatalogMB       float64 // total bytes of the catalog
	MaxFileKB       float64
	RequestsPerFile float64
}

// Characterize computes the Table 2 statistics for a trace.
func Characterize(t *Trace) Characteristics {
	counts := make([]int64, len(t.Sizes))
	var reqBytes float64
	for _, id := range t.Requests {
		counts[id]++
		reqBytes += float64(t.Sizes[id])
	}
	var files int
	var fileBytes, maxKB float64
	for id, c := range counts {
		if c == 0 {
			continue
		}
		files++
		sz := float64(t.Sizes[id])
		fileBytes += sz
		if kb := sz / 1024; kb > maxKB {
			maxKB = kb
		}
	}
	var catalogBytes float64
	for _, s := range t.Sizes {
		catalogBytes += float64(s)
	}
	ch := Characteristics{
		Name:         t.Name,
		CatalogFiles: len(t.Sizes),
		NumFiles:     files,
		NumRequests:  len(t.Requests),
		WorkingSetMB: fileBytes / (1 << 20),
		CatalogMB:    catalogBytes / (1 << 20),
		MaxFileKB:    maxKB,
		Alpha:        zipf.FitAlpha(counts),
	}
	if len(t.Sizes) > 0 {
		ch.CatalogAvgKB = catalogBytes / float64(len(t.Sizes)) / 1024
	}
	if files > 0 {
		ch.AvgFileKB = fileBytes / float64(files) / 1024
		ch.RequestsPerFile = float64(len(t.Requests)) / float64(files)
	}
	if len(t.Requests) > 0 {
		ch.AvgReqKB = reqBytes / float64(len(t.Requests)) / 1024
	}
	return ch
}
