// Package repro is a from-scratch Go reproduction of "Evaluating
// Cluster-Based Network Servers" (Carrera and Bianchini, HPDC 2000).
//
// The repository contains the paper's analytic queuing model
// (internal/queuemodel), the L2S distributed locality-and-load-balancing
// request distribution algorithm (internal/core), the LARD and traditional
// baselines (internal/policy), a trace-driven cluster simulator
// (internal/server and its substrates), synthetic workloads matching the
// paper's Table 2 traces (internal/trace), and an experiment harness that
// regenerates every table and figure (internal/experiments).
//
// cmd/experiments regenerates each published table and figure; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for
// measured-versus-published results.
package repro
