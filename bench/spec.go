package main

// This file is the benchmark's contract in Go: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root says the same thing to
// the driver; TestBenchmarkJSONMatchesSpec keeps the two identical.

// workloadDecl names one workload and why it exists.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl names one metric. Bound is the share of the parent's median
// an end-to-end metric may worsen by; per-layer metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 10

var workloads = []workloadDecl{
	{"egress-wide", "4096 sessions x 100 datagrams/s, open loop, no feedback: one datagram per wake, so wheel, jobs channel, worker and session lock dominate"},
	{"egress-bulk", "256 sessions x 4000 datagrams/s, open loop: four datagrams per wake, so plan, encode, pacer and the write dominate and per-wake cost is amortised"},
	{"loop-mem", "500 swarm receivers behind gateway + 30 Mb/s link, closed MKC/gamma loop: ingress, marking and priority eviction work; carries viewer quality"},
	{"churn-mem", "open loop of 800 five-frame sessions/s: the same table and wheel used for writes (admit, new, put, schedule, close, delete); carries startup latency"},
	{"sim-barbell", "one long bar-bell simulation, 32 PELS + 8 TCP flows: steady-state event loop, links, priority queue and sources with warm caches"},
	{"sim-figures", "every simulator-only paper figure run serially: dozens of short engines, so construction, baselines and per-run allocation dominate"},
}

// endToEnd are the metrics a viewer or a user of the simulator would see.
// Every workload reports every one; "op" and "latency" are the workload's
// unit of service, defined per workload in README.md. A bound is per
// metric, not per workload, so each is set by the noisiest workload: on the
// 2-vCPU reference VM the interquartile spread of a timing over ten runs
// reaches 9-12 % of its median (README.md, "Noise floor"), and the bound
// has to clear three times that or be the ceiling of 0.25.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"cpu_ns_per_op", "ns", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"delivered_frac", "frac", "higher", 0.05},
	{"utility", "frac", "higher", 0.05},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics, named <layer>.<metric>. A layer
// that does no work in a workload reports 0 there.
var perLayer = []metricDecl{
	// Pacing wheel and driver loop.
	{"wheel.advance_ns_per_timer", "ns", "lower", 0},
	{"wheel.schedule_ns_per_timer", "ns", "lower", 0},
	{"wheel.sleep_overshoot_p50_us", "us", "lower", 0},
	{"wheel.sleep_overshoot_p99_us", "us", "lower", 0},
	{"wheel.datagrams_per_tick", "count", "higher", 0},
	{"server.driver_loops_per_s", "1/s", "lower", 0},
	{"server.clock_now_per_datagram", "count", "lower", 0},
	{"server.pumps_per_datagram", "count", "lower", 0},
	{"server.allocs_per_datagram", "count", "lower", 0},
	// Egress chain.
	{"fgs.plan_ns_per_frame", "ns", "lower", 0},
	{"wire.encode_ns_per_datagram", "ns", "lower", 0},
	{"wire.pacer_ns_per_datagram", "ns", "lower", 0},
	{"session.frames_per_s", "1/s", "higher", 0},
	{"session.shed_datagrams", "count", "lower", 0},
	// Sockets: the kernel's share, and the harness's own transport.
	{"socket.udp_write_ns_per_datagram", "ns", "lower", 0},
	{"socket.udp_read_ns_per_datagram", "ns", "lower", 0},
	{"memnet.write_ns_per_datagram", "ns", "lower", 0},
	{"memnet.read_ns_per_datagram", "ns", "lower", 0},
	// Ingress chain.
	{"wire.decode_ns_per_datagram", "ns", "lower", 0},
	{"session.key_ns_per_feedback", "ns", "lower", 0},
	{"session.key_allocs_per_feedback", "count", "lower", 0},
	{"batcher.add_ns_per_item", "ns", "lower", 0},
	{"batcher.items_per_batch", "count", "higher", 0},
	{"table.get_ns_per_lookup", "ns", "lower", 0},
	{"session.feedback_ns_per_item", "ns", "lower", 0},
	{"session.feedback_accept_frac", "frac", "higher", 0},
	{"session.feedback_per_datagram", "count", "lower", 0},
	{"cc.mkc_ns_per_feedback", "ns", "lower", 0},
	{"fgs.gamma_ns_per_update", "ns", "lower", 0},
	// Marking gateway and shaping link.
	{"link.write_ns_per_datagram", "ns", "lower", 0},
	{"link.drop_frac", "frac", "lower", 0},
	{"link.enqueued_per_s", "1/s", "higher", 0},
	{"link.green_loss_frac", "frac", "lower", 0},
	{"gateway.mark_ns_per_datagram", "ns", "lower", 0},
	{"gateway.priority_ns_per_datagram", "ns", "lower", 0},
	// Admission and churn.
	{"session.new_ns_per_session", "ns", "lower", 0},
	{"session.new_allocs_per_session", "count", "lower", 0},
	{"session.new_bytes_per_session", "B", "lower", 0},
	{"table.put_delete_ns_per_session", "ns", "lower", 0},
	{"wire.control_encode_ns", "ns", "lower", 0},
	{"server.admits_per_s", "1/s", "higher", 0},
	{"server.datagrams_per_session", "count", "higher", 0},
	{"loadgen.hellos_per_s", "1/s", "higher", 0},
	{"loadgen.startup_p50_ms", "ms", "lower", 0},
	{"loadgen.startup_p99_ms", "ms", "lower", 0},
	// Simulator.
	{"sim.schedule_fire_ns_per_event", "ns", "lower", 0},
	{"sim.allocs_per_event", "count", "lower", 0},
	{"sim.events_per_packet", "count", "lower", 0},
	{"netsim.transit_ns_per_packet", "ns", "lower", 0},
	{"queue.priority_ns_per_packet", "ns", "lower", 0},
	{"aqm.stamp_ns_per_packet", "ns", "lower", 0},
	{"cc.mkc_ns_per_step", "ns", "lower", 0},
	{"experiments.build_ns_per_testbed", "ns", "lower", 0},
	// The budget's closing rows.
	{"server.residual_ns_per_datagram", "ns", "lower", 0},
	{"harness.cpu_frac", "frac", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
	{"trace.cpu_ns_per_op_untraced", "ns", "lower", 0},
}

// names lists the metric names of decls.
func names(decls []metricDecl) []string {
	out := make([]string, len(decls))
	for i, d := range decls {
		out[i] = d.Name
	}
	return out
}
