// Package queuemodel implements the analytic model of Section 3 of the
// paper: an open queuing network of M/M/1 service centers (router, and per
// node the network interfaces, CPU, and disk) that bounds the throughput of
// locality-oblivious and locality-conscious cluster-based network servers.
//
// The model assumes perfect load balance and no cache replacement, so the
// throughput it computes is an upper bound: the maximum request rate at
// which no service center exceeds full utilization. All parameters and
// default values follow Table 1 of the paper.
package queuemodel

import (
	"fmt"
	"math"

	"repro/internal/zipf"
)

// Params collects the model parameters of Table 1. Sizes are in KB to match
// the paper's service-rate formulas; memory is in bytes.
type Params struct {
	Nodes       int     // N: number of nodes
	Replication float64 // R: fraction of each memory used for replication
	Alpha       float64 // Zipf constant
	CacheBytes  int64   // C: main-memory cache per node
	AvgFileKB   float64 // S: average size of requested files (KB)
	ReqKB       float64 // size of an inbound request message (KB)

	// Service-center constants (Table 1).
	RouterKBps  float64 // router transfer rate: mu_r = RouterKBps/size ops/s
	NIInRate    float64 // mu_i: request service rate at the NI (ops/s)
	ParseRate   float64 // mu_p: request read/parse rate (ops/s)
	ForwardRate float64 // mu_f: request forwarding rate (ops/s)
	ReplyFixed  float64 // mu_m = 1/(ReplyFixed + S/ReplyKBps)
	ReplyKBps   float64
	DiskFixed   float64 // mu_d = 1/(DiskFixed + S/DiskKBps)
	DiskKBps    float64
	NIOutFixed  float64 // mu_o = 1/(NIOutFixed + S/NIOutKBps)
	NIOutKBps   float64
}

// DefaultParams returns the default values of Table 1: a 16-node cluster
// with 128 MB memories, a 4 Gbit/s router, 1 Gbit/s full-duplex links, the
// 14 ms / 10 MB/s disk of the LARD study, and CPU costs from the Flash and
// LARD papers.
func DefaultParams() Params {
	return Params{
		Nodes:       16,
		Replication: 0,
		Alpha:       1,
		CacheBytes:  128 << 20,
		AvgFileKB:   0, // must be set per workload
		ReqKB:       0.5,
		RouterKBps:  500000,
		NIInRate:    140000,
		ParseRate:   6300,
		ForwardRate: 10000,
		ReplyFixed:  0.0001,
		ReplyKBps:   12000,
		DiskFixed:   0.028,
		DiskKBps:    10000,
		NIOutFixed:  0.000003,
		NIOutKBps:   128000,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.Nodes < 1:
		return fmt.Errorf("queuemodel: need at least one node, got %d", p.Nodes)
	case !(p.Replication >= 0 && p.Replication <= 1):
		return fmt.Errorf("queuemodel: replication %v outside [0,1]", p.Replication)
	case !(p.AvgFileKB > 0) || math.IsInf(p.AvgFileKB, 1):
		return fmt.Errorf("queuemodel: average file size must be positive and finite, got %v", p.AvgFileKB)
	case p.CacheBytes <= 0:
		return fmt.Errorf("queuemodel: cache size must be positive, got %d", p.CacheBytes)
	case !(p.Alpha >= 0) || math.IsInf(p.Alpha, 1):
		return fmt.Errorf("queuemodel: alpha must be finite and >= 0, got %v", p.Alpha)
	}
	return nil
}

// Per-operation service times in seconds.

// ParseTime is the CPU time to read and parse one request (1/mu_p).
func (p Params) ParseTime() float64 { return 1 / p.ParseRate }

// ForwardTime is the CPU time to forward one request (1/mu_f).
func (p Params) ForwardTime() float64 { return 1 / p.ForwardRate }

// ReplyTime is the CPU time to send a locally-cached reply of s KB (1/mu_m).
func (p Params) ReplyTime(sKB float64) float64 { return p.ReplyFixed + sKB/p.ReplyKBps }

// DiskTime is the disk time to fetch a file of s KB, including the
// directory access (1/mu_d).
func (p Params) DiskTime(sKB float64) float64 { return p.DiskFixed + sKB/p.DiskKBps }

// NIInTime is the network-interface time to receive one request (1/mu_i).
func (p Params) NIInTime() float64 { return 1 / p.NIInRate }

// NIOutTime is the network-interface time to send a reply of s KB (1/mu_o).
func (p Params) NIOutTime(sKB float64) float64 { return p.NIOutFixed + sKB/p.NIOutKBps }

// RouterTime is the router time to move s KB (1/mu_r with size = s).
func (p Params) RouterTime(sKB float64) float64 { return sKB / p.RouterKBps }

// cachedFiles returns how many average-size files fit in capacity bytes.
func (p Params) cachedFiles(capacity float64) int64 {
	n := int64(capacity / (p.AvgFileKB * 1024))
	if n < 0 {
		n = 0
	}
	return n
}

// TotalConsciousCache returns Clc = N*(1-R)*C + R*C bytes: the effective
// cache of a locality-conscious server that replicates an R fraction.
func (p Params) TotalConsciousCache() float64 {
	c := float64(p.CacheBytes)
	return float64(p.Nodes)*(1-p.Replication)*c + p.Replication*c
}

// HitRates derives the model's three hit rates from the locality-oblivious
// hit rate Hlo, following the paper: the catalog size f is solved from
// Hlo = z(Clo/S, f); then Hlc = z(Clc/S, f) and the replicated-file hit
// rate h = z(R*C/S, f).
func (p Params) HitRates(hlo float64) (hlc, h float64) {
	if hlo < 0 || hlo > 1 {
		panic(fmt.Sprintf("queuemodel: Hlo %v outside [0,1]", hlo))
	}
	nLo := p.cachedFiles(float64(p.CacheBytes))
	if nLo < 1 {
		nLo = 1
	}
	if hlo == 0 {
		// Degenerate: an infinite catalog. No locality benefit in hit rate.
		return 0, 0
	}
	f := zipf.SolveFiles(p.Alpha, nLo, hlo)
	return p.hitRatesForCatalog(f)
}

// HitRatesForCatalog computes (Hlo, Hlc, h) directly from a known catalog
// size, as used for the per-trace model curves of Figures 7-10.
func (p Params) HitRatesForCatalog(files int64) (hlo, hlc, h float64) {
	hlc, h = p.hitRatesForCatalog(files)
	hlo = zipf.Z(p.Alpha, p.cachedFiles(float64(p.CacheBytes)), files)
	return hlo, hlc, h
}

func (p Params) hitRatesForCatalog(files int64) (hlc, h float64) {
	nLc := p.cachedFiles(p.TotalConsciousCache())
	nRep := p.cachedFiles(p.Replication * float64(p.CacheBytes))
	hlc = zipf.Z(p.Alpha, nLc, files)
	h = zipf.Z(p.Alpha, nRep, files)
	return hlc, h
}

// ForwardFraction returns Q = (N-1)*(1-h)/N: the fraction of requests a
// locality-conscious server must forward, given the replicated hit rate h.
func (p Params) ForwardFraction(h float64) float64 {
	return float64(p.Nodes-1) * (1 - h) / float64(p.Nodes)
}
