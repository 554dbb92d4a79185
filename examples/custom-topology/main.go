// Custom topology: PELS beyond the paper's bar-bell.
//
// The library is not tied to the Fig. 6 testbed: this example hand-builds a
// "parking lot" — two congested PELS routers in series — and shows the
// §5.2 multi-router machinery at work: a long flow crossing both hops reacts
// to whichever router is more congested (max-min), while short flows load
// each hop separately.
//
//	long:            L ──► r1 ═══► r2 ═══► r3 ──► L'
//	short hop 1:     A ──► r1 ═══► r2 ──► A'
//	short hop 2:              B ──► r2 ═══► r3 ──► B'
//
// Run with: go run ./examples/custom-topology
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/pels"
	"repro/internal/sim"
	"repro/internal/units"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "custom-topology:", err)
		os.Exit(1)
	}
}

func run() error {
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)

	r1 := nw.NewRouter("r1")
	r2 := nw.NewRouter("r2")
	r3 := nw.NewRouter("r3")

	// Both inter-router links run PELS AQM with different capacities:
	// hop 1 has 1.2 mb/s for video, hop 2 only 0.8 mb/s.
	const c1, c2 = 1200 * units.Kbps, 800 * units.Kbps
	b1 := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())
	b2 := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())

	access := netsim.LinkConfig{Rate: 10 * units.Mbps, Delay: 2 * time.Millisecond}
	hop1, _ := nw.Connect(r1, r2,
		netsim.LinkConfig{Rate: c1, Delay: 5 * time.Millisecond, Disc: b1.Disc},
		netsim.LinkConfig{Rate: c1, Delay: 5 * time.Millisecond})
	hop2, _ := nw.Connect(r2, r3,
		netsim.LinkConfig{Rate: c2, Delay: 5 * time.Millisecond, Disc: b2.Disc},
		netsim.LinkConfig{Rate: c2, Delay: 5 * time.Millisecond})
	// Feedback is attached per congested link (per output queue): packets
	// that leave a router through an uncongested port must not be counted
	// against — or stamped with — the bottleneck's loss.
	hop1.Proc = aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: 1, Interval: 30 * time.Millisecond, Capacity: c1,
	})
	hop2.Proc = aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: 2, Interval: 30 * time.Millisecond, Capacity: c2,
	})

	// Hosts: the long flow L→L' crosses both congested hops; A→A' loads
	// hop 1 only, B→B' hop 2 only.
	mkHost := func(name string, attach netsim.Node) *netsim.Host {
		h := nw.NewHost(name)
		nw.Connect(h, attach, access, access)
		return h
	}
	long1, long2 := mkHost("L", r1), mkHost("L'", r3)
	a1, a2 := mkHost("A", r1), mkHost("A'", r2)
	b1h, b2h := mkHost("B", r2), mkHost("B'", r3)
	if err := nw.ComputeRoutes(); err != nil {
		return err
	}

	type session struct {
		name string
		src  *pels.Source
		sink *pels.Sink
	}
	mkSession := func(name string, flow int, from, to *netsim.Host) (session, error) {
		src, sink, err := pels.Session(nw, from, to, pels.Config{Flow: flow})
		return session{name, src, sink}, err
	}
	sessions := make([]session, 0, 3)
	for _, spec := range []struct {
		name     string
		flow     int
		from, to *netsim.Host
	}{
		{"long (both hops)", 1, long1, long2},
		{"short hop 1", 2, a1, a2},
		{"short hop 2", 3, b1h, b2h},
	} {
		s, err := mkSession(spec.name, spec.flow, spec.from, spec.to)
		if err != nil {
			return err
		}
		sessions = append(sessions, s)
		s.src.Start(0)
	}

	if err := eng.RunUntil(60 * time.Second); err != nil {
		return err
	}

	fmt.Println("parking-lot topology: hop1 = 1.2 mb/s, hop2 = 0.8 mb/s video capacity")
	fmt.Printf("%-18s %-12s %-10s %-18s\n", "flow", "rate(kb/s)", "utility", "bottleneck")
	for _, s := range sessions {
		fb := s.sink.Received().LastFeedback
		fmt.Printf("%-18s %-12.0f %-10.3f hop %d\n",
			s.name, s.src.Rate().KbpsValue(), s.sink.Stats().MeanUtility, fb.RouterID)
	}
	fmt.Println("\nthe long flow reacts to whichever hop is more congested at each instant")
	fmt.Println("(max-of-losses feedback), so with BOTH hops loaded it ends up below the")
	fmt.Println("single-hop flows — the classic long-path penalty — while every flow's")
	fmt.Println("utility stays protected by its own priority queues.")
	return nil
}
