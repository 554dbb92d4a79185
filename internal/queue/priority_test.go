package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func TestPriorityStrictOrdering(t *testing.T) {
	pq := NewPriority(PriorityConfig{})
	pq.Enqueue(pkt(1, 100, packet.Red))
	pq.Enqueue(pkt(2, 100, packet.Yellow))
	pq.Enqueue(pkt(3, 100, packet.Green))
	pq.Enqueue(pkt(4, 100, packet.Green))
	pq.Enqueue(pkt(5, 100, packet.Red))

	var order []uint64
	for p := pq.Dequeue(); p != nil; p = pq.Dequeue() {
		order = append(order, p.ID)
	}
	want := []uint64{3, 4, 2, 1, 5}
	if len(order) != len(want) {
		t.Fatalf("dequeued %d packets, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("position %d: got packet %d, want %d", i, order[i], want[i])
		}
	}
}

func TestPriorityGreenNeverWaitsBehindLower(t *testing.T) {
	pq := NewPriority(PriorityConfig{})
	for i := uint64(0); i < 50; i++ {
		pq.Enqueue(pkt(i, 100, packet.Red))
	}
	pq.Enqueue(pkt(100, 100, packet.Green))
	if p := pq.Dequeue(); p == nil || p.Color != packet.Green {
		t.Errorf("first dequeue = %v, want the green packet", p)
	}
}

func TestPriorityRejectsNonPELSColors(t *testing.T) {
	pq := NewPriority(PriorityConfig{})
	for _, c := range []packet.Color{packet.TCP, packet.BestEffort, packet.ACK} {
		if pq.Enqueue(pkt(1, 100, c)) {
			t.Errorf("priority set accepted %v packet", c)
		}
	}
}

func TestPriorityPerColorLimits(t *testing.T) {
	pq := NewPriority(PriorityConfig{GreenLimit: 2, YellowLimit: 3, RedLimit: 1})
	colors := []struct {
		c     packet.Color
		n     int
		limit int
	}{
		{packet.Green, 5, 2},
		{packet.Yellow, 5, 3},
		{packet.Red, 5, 1},
	}
	for _, tc := range colors {
		for i := 0; i < tc.n; i++ {
			pq.Enqueue(pkt(uint64(i), 100, tc.c))
		}
		q := pq.Queue(tc.c)
		if q.Len() != tc.limit {
			t.Errorf("%v queue len = %d, want %d", tc.c, q.Len(), tc.limit)
		}
		if int(q.Dropped) != tc.n-tc.limit {
			t.Errorf("%v drops = %d, want %d", tc.c, q.Dropped, tc.n-tc.limit)
		}
	}
}

func TestPriorityLenAndBytes(t *testing.T) {
	pq := NewPriority(PriorityConfig{})
	pq.Enqueue(pkt(1, 100, packet.Green))
	pq.Enqueue(pkt(2, 200, packet.Yellow))
	pq.Enqueue(pkt(3, 300, packet.Red))
	if pq.Len() != 3 {
		t.Errorf("Len = %d, want 3", pq.Len())
	}
	if pq.Bytes() != 600 {
		t.Errorf("Bytes = %d, want 600", pq.Bytes())
	}
}

func TestPriorityQueueAccessor(t *testing.T) {
	pq := NewPriority(DefaultPriorityConfig())
	if pq.Queue(packet.Green) == nil || pq.Queue(packet.Yellow) == nil || pq.Queue(packet.Red) == nil {
		t.Error("color queue accessor returned nil for a PELS color")
	}
	if pq.Queue(packet.TCP) != nil {
		t.Error("color queue accessor returned a queue for TCP")
	}
	if c := pq.ColorCounters(packet.TCP); c != (Counters{}) {
		t.Errorf("ColorCounters(TCP) = %+v, want zero", c)
	}
}

// TestPriorityZeroAllocs: classifying a packet onto its layer queue and the
// enqueue/dequeue round trip through an 8-layer priority set, cycling through
// every layer colour, touch no heap once the layer queues have grown.
func TestPriorityZeroAllocs(t *testing.T) {
	pq := NewPriority(NLayerPriorityConfig(8))
	pkts := make([]*packet.Packet, 8)
	for i := range pkts {
		pkts[i] = &packet.Packet{Color: packet.LayerColor(i), Size: 500}
	}
	i := 0
	run := func() {
		p := pkts[i%len(pkts)]
		i++
		if !pq.Enqueue(p) {
			t.Fatal("drop on an empty queue")
		}
		if pq.Dequeue() != p {
			t.Fatal("dequeued a packet other than the one enqueued")
		}
	}
	for k := 0; k < 100; k++ {
		run()
	}
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Errorf("Enqueue+Dequeue over 8 layers allocates %.2f/op, want 0", allocs)
	}
}

// TestPriorityDequeueProperty: whatever the arrival pattern, a dequeued
// packet's color class never has a higher-priority class non-empty at the
// moment of service.
func TestPriorityDequeueProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		pq := NewPriority(PriorityConfig{GreenLimit: 10, YellowLimit: 10, RedLimit: 10})
		var id uint64
		for _, op := range ops {
			switch op % 4 {
			case 0:
				id++
				pq.Enqueue(pkt(id, 1, packet.Green))
			case 1:
				id++
				pq.Enqueue(pkt(id, 1, packet.Yellow))
			case 2:
				id++
				pq.Enqueue(pkt(id, 1, packet.Red))
			case 3:
				gBefore := pq.Queue(packet.Green).Len()
				yBefore := pq.Queue(packet.Yellow).Len()
				p := pq.Dequeue()
				if p == nil {
					continue
				}
				switch p.Color {
				case packet.Yellow:
					if gBefore > 0 {
						return false
					}
				case packet.Red:
					if gBefore > 0 || yBefore > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
