// Package repro is a from-scratch Go reproduction of "Flexible and
// Formal Modeling of Microprocessors with Application to Retargetable
// Simulation" (Wei Qin and Sharad Malik, DATE 2003): the operation
// state machine (OSM) computation model, its reusable token-manager
// library and deterministic director, the discrete-event hardware
// layer, two complete micro-architecture case studies (StrongARM
// SA-1100 and PowerPC 750), the baselines the paper compares against,
// an OSM-based architecture description language, and a benchmark
// harness that regenerates every table and figure of the evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-versus-measured
// results. internal/experiments computes every number of the
// evaluation; cmd/osmbench prints it, and the scale-1 output is checked
// in as internal/experiments/testdata/paper_tables.txt.
package repro
