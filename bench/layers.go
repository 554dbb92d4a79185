package main

import (
	"fmt"
	"io"
)

// tracerSnap is the tracer's exact counters at one instant; two of them
// bracket the measured window.
type tracerSnap struct {
	calls [numSpanKinds]uint64
	now   uint64
}

func (t *tracer) snap() tracerSnap {
	var s tracerSnap
	for i := range t.kinds {
		s.calls[i] = t.kinds[i].calls.Load()
	}
	s.now = t.nowCalls.Load()
	return s
}

// traceLive is the per-layer run of a live workload: an untraced window
// (the reference cost), the same window with the wrappers armed, then the
// stage chains; 40 %, 40 % and 20 % of -seconds.
func traceLive(p params, spec liveSpec) (*outcome, error) {
	wp := p
	wp.seconds = p.seconds * 0.4
	untraced, err := measureLive(wp, spec, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := measureLive(wp, spec, tr)
	if err != nil {
		return nil, err
	}
	if p.traceOut != "" {
		if err := tr.writeSpans(p.traceOut); err != nil {
			return nil, err
		}
	}
	st := liveStages(spec, seconds(p.seconds*0.2))
	values, budget := perLayerLive(untraced, traced, tr, st)
	notes := append(append([]string(nil), untraced.notes...), traced.notes...)
	o := finish(values, perLayer, traced.attempted, untraced.failed+traced.failed, notes)
	o.Budget = budget
	o.Usage = traced.usage.String()
	return o, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayerLive derives the per-layer metrics and the budget table of one
// live workload from its untraced window u, traced window t and stages st.
func perLayerLive(u, t *liveRun, tr *tracer, st stages) (map[string]float64, []budgetRow) {
	wall := t.wall.Seconds()
	dg := float64(t.datagrams)
	calls := func(kind int) float64 { return float64(t.tr1.calls[kind] - t.tr0.calls[kind]) }
	loops := calls(spanClockSleep)
	nowCalls := float64(t.tr1.now - t.tr0.now)
	frames := calls(spanScalerBudget)
	hellos := float64(t.after.Hellos - t.before.Hellos)
	fbItems := float64(t.after.FeedbackItems - t.before.FeedbackItems)
	fbBatches := float64(t.after.FeedbackBatches - t.before.FeedbackBatches)
	admitted := float64(t.after.Admitted - t.before.Admitted)
	completed := float64(t.after.Completed - t.before.Completed)
	// The clock is read once per pump by a worker, twice per driver loop
	// and twice per demux iteration (one per datagram in, plus idle
	// polls, which are too few to matter).
	pumps := nowCalls - 2*loops - 2*(hellos+fbItems)
	if pumps < 0 {
		pumps = 0
	}
	var shed, accepted float64
	for _, s := range t.sessStats {
		shed += float64(s.Shed)
		accepted += float64(s.FeedbackAccepted)
	}

	m := map[string]float64{
		"wheel.advance_ns_per_timer":    st.wheelAdvance,
		"wheel.schedule_ns_per_timer":   st.wheelSchedule,
		"wheel.sleep_overshoot_p50_us":  tr.overshoot.quantile(0.5) / 1e3,
		"wheel.sleep_overshoot_p99_us":  tr.overshoot.quantile(0.99) / 1e3,
		"wheel.datagrams_per_tick":      ratio(dg, loops),
		"server.driver_loops_per_s":     loops / wall,
		"server.clock_now_per_datagram": ratio(nowCalls, dg),
		"server.pumps_per_datagram":     ratio(pumps, dg),
		"server.allocs_per_datagram":    ratio(float64(u.mallocs), float64(u.datagrams)),

		"fgs.plan_ns_per_frame":       st.planPerFrame,
		"wire.encode_ns_per_datagram": st.encode,
		"wire.pacer_ns_per_datagram":  st.pacer,
		"session.frames_per_s":        frames / wall,
		"session.shed_datagrams":      shed,

		"socket.udp_write_ns_per_datagram": st.udpWrite,
		"socket.udp_read_ns_per_datagram":  st.udpRead,
		"memnet.write_ns_per_datagram":     st.memWrite,
		"memnet.read_ns_per_datagram":      st.memRead,

		"server.admits_per_s":          admitted / wall,
		"server.datagrams_per_session": ratio(dg, completed),
		"loadgen.hellos_per_s":         float64(t.tapHellos) / wall,
		"loadgen.startup_p50_ms":       t.startP50,
		"loadgen.startup_p99_ms":       t.startP99,

		"session.new_ns_per_session":      st.newSession,
		"session.new_allocs_per_session":  st.newAllocs,
		"session.new_bytes_per_session":   st.newBytes,
		"table.put_delete_ns_per_session": st.putDelete,
		"wire.control_encode_ns":          st.controlEncode,
	}
	// Every datagram is planned, encoded and paced; a pump is one timer
	// fired and re-armed.
	budget := []budgetRow{
		{"wheel.advance", st.wheelAdvance * ratio(pumps, dg)},
		{"fgs.plan", st.planPerFrame * ratio(frames, dg)},
		{"wire.encode", st.encode},
		{"wire.pacer", st.pacer},
	}
	var harness float64
	switch t.spec.kind {
	case kindEgress:
		harness = st.sinkWrite
		budget = append(budget, budgetRow{"harness: sink write", harness})
	case kindLoop, kindChurn:
		// The receivers are harness too: per datagram delivered, a tapped
		// read and two decodes (tap, swarm); per feedback, an encode and a
		// write.
		harness = st.memRead + 2*st.decode + ratio(fbItems, dg)*(st.encode+st.memWrite)
		budget = append(budget, budgetRow{"harness: receivers", harness})
	}
	if t.spec.kind == kindLoop {
		mark := tr.kinds[spanGatewayMark].nsPerCall()
		prio := tr.kinds[spanGatewayPriority].nsPerCall()
		self := tr.kinds[spanLinkWrite].nsPerCall() - mark - prio
		perFB := ratio(fbItems, dg)
		for k, v := range map[string]float64{
			"wire.decode_ns_per_datagram":      st.decode,
			"session.key_ns_per_feedback":      st.key,
			"session.key_allocs_per_feedback":  st.keyAllocs,
			"batcher.add_ns_per_item":          st.batchAdd,
			"batcher.items_per_batch":          ratio(fbItems, fbBatches),
			"table.get_ns_per_lookup":          st.tableGet,
			"session.feedback_ns_per_item":     st.feedbackItem,
			"session.feedback_accept_frac":     ratio(accepted, float64(t.after.FeedbackItems)),
			"session.feedback_per_datagram":    perFB,
			"cc.mkc_ns_per_feedback":           st.mkc,
			"fgs.gamma_ns_per_update":          st.gamma,
			"link.write_ns_per_datagram":       self,
			"link.drop_frac":                   ratio(float64(t.link.OverflowDrops), dg),
			"link.enqueued_per_s":              float64(t.link.Enqueued) / wall,
			"link.green_loss_frac":             t.greenLoss,
			"gateway.mark_ns_per_datagram":     mark,
			"gateway.priority_ns_per_datagram": prio,
		} {
			m[k] = v
		}
		budget = append(budget,
			budgetRow{"link.write (self)", self},
			budgetRow{"gateway.mark", mark},
			budgetRow{"gateway.priority", prio},
			budgetRow{"ingress: memnet.read", st.memRead * perFB},
			budgetRow{"ingress: wire.decode", st.decode * perFB},
			budgetRow{"ingress: session.key", st.key * perFB},
			budgetRow{"ingress: batcher.add", st.batchAdd * perFB},
			budgetRow{"ingress: table.get", st.tableGet * perFB},
			budgetRow{"ingress: session.feedback", st.feedbackItem * perFB},
		)
	}
	if t.spec.kind == kindChurn {
		perSession := ratio(completed, dg)
		budget = append(budget,
			budgetRow{"memnet.write", st.memWrite},
			budgetRow{"admit: session.key", st.key * perSession},
			budgetRow{"admit: session.new", st.newSession * perSession},
			budgetRow{"admit: table.put+delete", st.putDelete * perSession},
			budgetRow{"admit: wheel.schedule", st.wheelSchedule * perSession},
			budgetRow{"close: wire.control_encode", st.controlEncode * perSession},
		)
		m["session.key_ns_per_feedback"] = st.key
		m["session.key_allocs_per_feedback"] = st.keyAllocs
	}

	cpuU := ratio(float64(u.cpu.Nanoseconds()), float64(u.datagrams))
	cpuT := ratio(float64(t.cpu.Nanoseconds()), dg)
	residual := cpuU
	for _, row := range budget {
		residual -= row.Ns
	}
	budget = append(budget,
		budgetRow{"server.residual (locks, channels, scheduler, GC)", residual},
		budgetRow{"= cpu per datagram, untraced", cpuU},
	)
	m["server.residual_ns_per_datagram"] = residual
	m["harness.cpu_frac"] = ratio(harness, cpuU)
	m["trace.overhead_frac"] = ratio(cpuT-cpuU, cpuU)
	m["trace.cpu_ns_per_op_untraced"] = ratio(float64(u.cpu.Nanoseconds()), float64(u.ops))
	return m, budget
}

// perLayerSim derives the simulator's per-layer metrics.
func perLayerSim(run *simRun, st simStages) map[string]float64 {
	return map[string]float64{
		"sim.schedule_fire_ns_per_event":   st.scheduleFire,
		"sim.allocs_per_event":             ratio(float64(run.mallocs), float64(run.events)),
		"sim.events_per_packet":            ratio(float64(run.events), float64(run.packets)),
		"netsim.transit_ns_per_packet":     st.transit,
		"queue.priority_ns_per_packet":     st.priority,
		"aqm.stamp_ns_per_packet":          st.stamp,
		"cc.mkc_ns_per_step":               st.mkc,
		"experiments.build_ns_per_testbed": st.buildTestbed,
		"trace.cpu_ns_per_op_untraced":     ratio(float64(run.cpu.Nanoseconds()), float64(run.events)),
	}
}

// printBudget writes a traced run's cost attribution as a table whose rows
// sum to the last one.
func printBudget(w io.Writer, name string, rows []budgetRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "budget for %s (ns of process CPU per datagram put on Out)\n", name)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-52s %+10.1f\n", r.Stage, r.Ns)
	}
}
