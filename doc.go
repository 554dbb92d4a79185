// Package repro is a from-scratch Go reproduction of "Multi-layer Active
// Queue Management and Congestion Control for Scalable Video Streaming"
// (Kang, Zhang, Dai, Loguinov — ICDCS 2004): the PELS streaming framework,
// its priority AQM, Max-min Kelly congestion control, and the discrete-
// event network simulator the evaluation runs on.
//
// See README.md for a guided tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-vs-measured results. The benchmark in
// bench_test.go runs every simulator registry entry, which regenerates
// every table and figure of the paper's §6:
//
//	go test -bench=. -benchmem
package repro
