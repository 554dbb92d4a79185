package netsim

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// recordApp copies arrival facts out of each packet (the ownership contract
// pooling imposes) instead of retaining pointers.
type recordApp struct {
	eng   *sim.Engine
	ids   []uint64
	at    []time.Duration
	sizes []int
	// objects counts the distinct packet objects delivered; the pointers
	// are only compared, never dereferenced after delivery.
	objects map[*packet.Packet]bool
}

func (a *recordApp) HandlePacket(p *packet.Packet) {
	a.objects[p] = true
	a.ids = append(a.ids, p.ID)
	a.at = append(a.at, a.eng.Now())
	a.sizes = append(a.sizes, p.Size)
}

// runPooledScenario drives a two-host + router topology with a queue small
// enough to drop, returning the delivery record and the network.
func runPooledScenario(t *testing.T, pooled bool) (*recordApp, *Network) {
	t.Helper()
	eng := sim.NewEngine(3)
	net := NewNetwork(eng)
	if pooled {
		net.EnablePacketPool()
	}
	src := net.NewHost("src")
	dst := net.NewHost("dst")
	r := net.NewRouter("r")
	net.Connect(src, r, LinkConfig{Rate: 10 * units.Mbps, Delay: time.Millisecond},
		LinkConfig{Rate: 10 * units.Mbps, Delay: time.Millisecond})
	net.Connect(r, dst, LinkConfig{Rate: units.Mbps, Delay: 5 * time.Millisecond, Disc: queue.NewDropTail(4, 0)},
		LinkConfig{Rate: units.Mbps, Delay: 5 * time.Millisecond})
	if err := net.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	app := &recordApp{eng: eng, objects: make(map[*packet.Packet]bool)}
	dst.Attach(1, app)
	// Burst enough packets to overflow the 4-slot bottleneck queue, in a
	// few waves so freed packets get recycled.
	for wave := 0; wave < 5; wave++ {
		at := time.Duration(wave) * 100 * time.Millisecond
		eng.At(at, func() {
			for i := 0; i < 10; i++ {
				p := net.NewPacket(1, dst.ID(), 1000, packet.Green)
				src.Send(p)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return app, net
}

// TestPooledRunMatchesUnpooled is the pooling determinism gate: recycling
// packet objects must not change what the simulation computes.
func TestPooledRunMatchesUnpooled(t *testing.T) {
	plain, _ := runPooledScenario(t, false)
	pooled, _ := runPooledScenario(t, true)
	if len(plain.ids) != len(pooled.ids) {
		t.Fatalf("pooled run delivered %d packets, unpooled %d", len(pooled.ids), len(plain.ids))
	}
	for i := range plain.ids {
		if plain.ids[i] != pooled.ids[i] || plain.at[i] != pooled.at[i] || plain.sizes[i] != pooled.sizes[i] {
			t.Fatalf("delivery %d diverges: unpooled (id=%d at=%v) pooled (id=%d at=%v)",
				i, plain.ids[i], plain.at[i], pooled.ids[i], pooled.at[i])
		}
	}
	if len(pooled.objects) >= len(pooled.ids) {
		t.Error("pool never recycled a packet across 5 waves of freed deliveries")
	}
}

func TestEnablePacketPoolAfterNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("EnablePacketPool after NewHost did not panic")
		}
	}()
	net := NewNetwork(sim.NewEngine(1))
	net.NewHost("h")
	net.EnablePacketPool()
}

// TestLinkSteadyStateAllocs asserts the link transmit path itself stops
// allocating once the engine free list is primed: no per-packet closures,
// no per-packet events.
func TestLinkSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	sinkApp := &countingReceiver{}
	l := NewLink(eng, "l", units.Mbps, time.Millisecond, queue.NewDropTail(0, 0), sinkApp)
	p := &packet.Packet{ID: 1, Size: 1000}
	// Prime engine event free list and link FIFO capacity.
	for i := 0; i < 16; i++ {
		l.Send(p)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		l.Send(p)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state link transit allocates %.1f/op, want 0", allocs)
	}
}

type countingReceiver struct{ n int }

func (c *countingReceiver) Receive(p *packet.Packet) { c.n++ }
