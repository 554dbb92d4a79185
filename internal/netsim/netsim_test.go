package netsim

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// collector is a Receiver/App recording arrivals with timestamps.
type collector struct {
	eng  *sim.Engine
	pkts []*packet.Packet
	at   []time.Duration
}

func (c *collector) Receive(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.at = append(c.at, c.eng.Now())
}

func (c *collector) HandlePacket(p *packet.Packet) { c.Receive(p) }

func TestLinkSerializationAndPropagation(t *testing.T) {
	eng := sim.NewEngine(1)
	dst := &collector{eng: eng}
	// 1 mb/s, 10 ms delay: a 1000-byte packet takes 8 ms to serialize,
	// arriving at 18 ms; the second packet queues behind it: 16+10=26 ms.
	l := NewLink(eng, "l", units.Mbps, 10*time.Millisecond, nil, dst)
	l.Send(&packet.Packet{ID: 1, Size: 1000})
	l.Send(&packet.Packet{ID: 2, Size: 1000})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(dst.pkts))
	}
	if dst.at[0] != 18*time.Millisecond {
		t.Errorf("first arrival at %v, want 18ms", dst.at[0])
	}
	if dst.at[1] != 26*time.Millisecond {
		t.Errorf("second arrival at %v, want 26ms", dst.at[1])
	}
}

func TestLinkPipelinesPropagation(t *testing.T) {
	eng := sim.NewEngine(1)
	dst := &collector{eng: eng}
	// Propagation is not serialization: with a long delay, back-to-back
	// packets arrive one serialization time apart, not one delay apart.
	l := NewLink(eng, "l", units.Mbps, time.Second, nil, dst)
	l.Send(&packet.Packet{ID: 1, Size: 1000})
	l.Send(&packet.Packet{ID: 2, Size: 1000})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	gap := dst.at[1] - dst.at[0]
	if gap != 8*time.Millisecond {
		t.Errorf("inter-arrival gap = %v, want 8ms (serialization time)", gap)
	}
}

func TestLinkQueueingDiscipline(t *testing.T) {
	eng := sim.NewEngine(1)
	dst := &collector{eng: eng}
	disc := queue.NewDropTail(2, 0)
	l := NewLink(eng, "l", units.Mbps, 0, disc, dst)
	var drops int
	l.OnDrop = func(*packet.Packet) { drops++ }
	// First packet starts transmitting immediately (leaves the queue), so
	// 3 more fit before the 2-packet buffer overflows.
	for i := uint64(1); i <= 5; i++ {
		l.Send(&packet.Packet{ID: i, Size: 1000})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dst.pkts) != 3 {
		t.Errorf("delivered %d packets, want 3", len(dst.pkts))
	}
	if drops != 2 {
		t.Errorf("OnDrop fired %d times, want 2", drops)
	}
}

func TestLinkTimestampsAndHooks(t *testing.T) {
	eng := sim.NewEngine(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, "l", units.Mbps, 0, nil, dst)
	var transmitted []*packet.Packet
	l.OnTransmit = func(p *packet.Packet) { transmitted = append(transmitted, p) }
	l.Send(&packet.Packet{ID: 1, Size: 1000})
	l.Send(&packet.Packet{ID: 2, Size: 1000})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(transmitted) != 2 {
		t.Fatalf("OnTransmit fired %d times", len(transmitted))
	}
	p2 := transmitted[1]
	if p2.QueueingDelay() != 8*time.Millisecond {
		t.Errorf("second packet queueing delay = %v, want 8ms", p2.QueueingDelay())
	}
}

func TestLinkCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, "l", units.Mbps, 0, nil, dst)
	for i := uint64(1); i <= 4; i++ {
		l.Send(&packet.Packet{ID: i, Size: 250})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if l.TransmittedPackets() != 4 || l.transmittedBytes != 1000 {
		t.Errorf("counters = %d pkts / %d bytes", l.TransmittedPackets(), l.transmittedBytes)
	}
	// 1000 bytes at 1 mb/s over 8 ms of elapsed time = 100% utilization.
	if u := l.Utilization(8 * time.Millisecond); u < 0.99 || u > 1.01 {
		t.Errorf("Utilization = %v, want ~1", u)
	}
}

func buildBarbell(t *testing.T) (*sim.Engine, *Network, *Host, *Host, *Router, *Router) {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng)
	h1 := nw.NewHost("h1")
	h2 := nw.NewHost("h2")
	r1 := nw.NewRouter("r1")
	r2 := nw.NewRouter("r2")
	cfg := LinkConfig{Rate: 10 * units.Mbps, Delay: time.Millisecond}
	nw.Connect(h1, r1, cfg, cfg)
	nw.Connect(r1, r2, cfg, cfg)
	nw.Connect(r2, h2, cfg, cfg)
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return eng, nw, h1, h2, r1, r2
}

func TestNetworkEndToEndDelivery(t *testing.T) {
	eng, nw, h1, h2, _, _ := buildBarbell(t)
	sink := &collector{eng: eng}
	h2.Attach(7, sink)
	p := nw.NewPacket(7, h2.ID(), 500, packet.Green)
	h1.Send(p)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sink.pkts))
	}
	if sink.pkts[0].Src != h1.ID() {
		t.Errorf("Src = %d, want %d", sink.pkts[0].Src, h1.ID())
	}
	// 3 hops × (0.4 ms serialization + 1 ms delay) = 4.2 ms.
	if sink.at[0] != 4200*time.Microsecond {
		t.Errorf("end-to-end delay = %v, want 4.2ms", sink.at[0])
	}
}

func TestNetworkReversePath(t *testing.T) {
	eng, nw, h1, h2, _, _ := buildBarbell(t)
	sink := &collector{eng: eng}
	h1.Attach(7, sink)
	p := nw.NewPacket(7, h1.ID(), 40, packet.ACK)
	h2.Send(p)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.pkts) != 1 {
		t.Fatalf("reverse path delivered %d packets, want 1", len(sink.pkts))
	}
}

func TestHostDemuxByFlow(t *testing.T) {
	eng, nw, h1, h2, _, _ := buildBarbell(t)
	a := &collector{eng: eng}
	b := &collector{eng: eng}
	other := &collector{eng: eng}
	h2.Attach(1, a)
	h2.Attach(2, b)
	h2.DefaultApp = other
	h1.Send(nw.NewPacket(1, h2.ID(), 100, packet.Green))
	h1.Send(nw.NewPacket(2, h2.ID(), 100, packet.Green))
	h1.Send(nw.NewPacket(3, h2.ID(), 100, packet.Green))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.pkts) != 1 || len(b.pkts) != 1 || len(other.pkts) != 1 {
		t.Errorf("demux counts = %d/%d/%d, want 1/1/1", len(a.pkts), len(b.pkts), len(other.pkts))
	}
}

func TestHostDetach(t *testing.T) {
	eng, nw, h1, h2, _, _ := buildBarbell(t)
	a := &collector{eng: eng}
	h2.Attach(1, a)
	h2.detach(1)
	h1.Send(nw.NewPacket(1, h2.ID(), 100, packet.Green))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(a.pkts) != 0 {
		t.Error("detached app still received packets")
	}
}

// TestRouterNoRouteCounted: a packet with no route is discarded, and
// handed back to the pool so the next packet reuses it.
func TestRouterNoRouteCounted(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng)
	nw.EnablePacketPool()
	r := nw.NewRouter("r")
	p := nw.NewPacket(1, 999, 100, packet.Green)
	r.Receive(p)
	if nw.NewPacket(1, 0, 100, packet.Green) != p {
		t.Error("no-route packet was not returned to the pool")
	}
}

// TestRouterProcessorPipeline: a processor on a router's output port sees
// every packet the router forwards through it.
func TestRouterProcessorPipeline(t *testing.T) {
	eng, nw, h1, h2, r1, _ := buildBarbell(t)
	r1.routes[h2.ID()].Proc = processorFunc(func(p *packet.Packet) {
		p.Feedback = p.Feedback.Merge(r1.ID(), 1, 0.5)
	})
	sink := &collector{eng: eng}
	h2.Attach(7, sink)
	h1.Send(nw.NewPacket(7, h2.ID(), 100, packet.Green))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fb := sink.pkts[0].Feedback
	if !fb.Valid || fb.RouterID != r1.ID() || fb.Loss != 0.5 {
		t.Errorf("processor did not stamp feedback: %+v", fb)
	}
}

type processorFunc func(p *packet.Packet)

func (f processorFunc) Process(p *packet.Packet) { f(p) }

func TestHostWithoutUplinkPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng)
	h := nw.NewHost("orphan")
	defer func() {
		if recover() == nil {
			t.Error("Send on host without uplink did not panic")
		}
	}()
	h.Send(nw.NewPacket(1, 0, 100, packet.Green))
}

func TestComputeRoutesMultiHop(t *testing.T) {
	// Chain of 4 routers; every router must learn a next hop toward both
	// end hosts.
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng)
	h1 := nw.NewHost("h1")
	h2 := nw.NewHost("h2")
	var routers []*Router
	for i := 0; i < 4; i++ {
		routers = append(routers, nw.NewRouter("r"))
	}
	cfg := LinkConfig{Rate: units.Mbps, Delay: time.Millisecond}
	nw.Connect(h1, routers[0], cfg, cfg)
	for i := 0; i < 3; i++ {
		nw.Connect(routers[i], routers[i+1], cfg, cfg)
	}
	nw.Connect(routers[3], h2, cfg, cfg)
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	sink := &collector{eng: eng}
	h2.Attach(1, sink)
	h1.Send(nw.NewPacket(1, h2.ID(), 100, packet.Green))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.pkts) != 1 {
		t.Fatal("multi-hop delivery failed")
	}
}

func TestNewPacketUniqueIDs(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		p := nw.NewPacket(1, 0, 100, packet.Green)
		if seen[p.ID] {
			t.Fatalf("duplicate packet ID %d", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestLinkProcessorSeesDrops(t *testing.T) {
	// The per-link processor must observe every OFFERED packet, including
	// ones the discipline then drops — the PELS arrival counter S counts
	// pre-drop traffic (paper eq. 11).
	eng := sim.NewEngine(1)
	dst := &collector{eng: eng}
	disc := queue.NewDropTail(1, 0)
	l := NewLink(eng, "l", units.Mbps, 0, disc, dst)
	var seen int
	l.Proc = processorFunc(func(p *packet.Packet) { seen++ })
	for i := uint64(1); i <= 5; i++ {
		l.Send(&packet.Packet{ID: i, Size: 1000})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("processor saw %d packets, want all 5 offered", seen)
	}
	if len(dst.pkts) >= 5 {
		t.Error("expected some drops with a 1-packet buffer")
	}
}

func TestLinkProcessorStampsBeforeQueue(t *testing.T) {
	eng := sim.NewEngine(1)
	dst := &collector{eng: eng}
	l := NewLink(eng, "l", units.Mbps, 0, nil, dst)
	l.Proc = processorFunc(func(p *packet.Packet) {
		p.Feedback = p.Feedback.Merge(7, 1, 0.25)
	})
	l.Send(&packet.Packet{ID: 1, Size: 100})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fb := dst.pkts[0].Feedback; !fb.Valid || fb.RouterID != 7 {
		t.Errorf("delivered packet not stamped by link processor: %+v", fb)
	}
}
