package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func pkt(id uint64, size int, c packet.Color) *packet.Packet {
	return &packet.Packet{ID: id, Size: size, Color: c}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(0, 0)
	for i := uint64(1); i <= 10; i++ {
		if !q.Enqueue(pkt(i, 100, packet.TCP)) {
			t.Fatalf("unbounded queue dropped packet %d", i)
		}
	}
	for i := uint64(1); i <= 10; i++ {
		p := q.Dequeue()
		if p == nil || p.ID != i {
			t.Fatalf("dequeue %d = %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Error("empty queue returned a packet")
	}
}

func TestDropTailPacketLimit(t *testing.T) {
	q := NewDropTail(3, 0)
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(pkt(i, 100, packet.TCP))
	}
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	if q.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", q.Dropped)
	}
	if q.Arrived != 5 {
		t.Errorf("Arrived = %d, want 5", q.Arrived)
	}
	if got := q.LossRate(); got != 0.4 {
		t.Errorf("LossRate = %v, want 0.4", got)
	}
}

func TestDropTailByteLimit(t *testing.T) {
	q := NewDropTail(0, 250)
	if !q.Enqueue(pkt(1, 100, packet.TCP)) {
		t.Fatal("first packet dropped")
	}
	if !q.Enqueue(pkt(2, 100, packet.TCP)) {
		t.Fatal("second packet dropped")
	}
	if q.Enqueue(pkt(3, 100, packet.TCP)) {
		t.Error("packet exceeding byte limit accepted")
	}
	if q.Bytes() != 200 {
		t.Errorf("Bytes = %d, want 200", q.Bytes())
	}
}

func TestDropTailOnDropHook(t *testing.T) {
	q := NewDropTail(1, 0)
	var dropped []uint64
	q.OnDrop = func(p *packet.Packet) { dropped = append(dropped, p.ID) }
	q.Enqueue(pkt(1, 100, packet.TCP))
	q.Enqueue(pkt(2, 100, packet.TCP))
	q.Enqueue(pkt(3, 100, packet.TCP))
	if len(dropped) != 2 || dropped[0] != 2 || dropped[1] != 3 {
		t.Errorf("dropped = %v, want [2 3]", dropped)
	}
}

func TestDropTailPeek(t *testing.T) {
	q := NewDropTail(0, 0)
	if q.q.peek() != nil {
		t.Error("peek on empty queue != nil")
	}
	q.Enqueue(pkt(1, 100, packet.TCP))
	q.Enqueue(pkt(2, 100, packet.TCP))
	if p := q.q.peek(); p == nil || p.ID != 1 {
		t.Errorf("Peek = %v, want packet 1", p)
	}
	if q.Len() != 2 {
		t.Error("Peek consumed a packet")
	}
}

func TestDropTailCountersReset(t *testing.T) {
	q := NewDropTail(1, 0)
	q.Enqueue(pkt(1, 100, packet.TCP))
	q.Enqueue(pkt(2, 100, packet.TCP))
	q.Counters.reset()
	if q.Arrived != 0 || q.Dropped != 0 {
		t.Errorf("counters not reset: %+v", q.Counters)
	}
}

// TestFIFOCompaction pushes and pops enough packets to trigger the internal
// slice compaction and verifies ordering and byte accounting survive it.
func TestFIFOCompaction(t *testing.T) {
	q := NewDropTail(0, 0)
	next := uint64(1)
	expect := uint64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 37; i++ {
			q.Enqueue(pkt(next, 10, packet.TCP))
			next++
		}
		for i := 0; i < 29; i++ {
			p := q.Dequeue()
			if p == nil || p.ID != expect {
				t.Fatalf("round %d: dequeue = %v, want id %d", round, p, expect)
			}
			expect++
		}
		if q.Bytes() != q.Len()*10 {
			t.Fatalf("round %d: bytes %d != len*10 %d", round, q.Bytes(), q.Len()*10)
		}
	}
	for q.Len() > 0 {
		p := q.Dequeue()
		if p.ID != expect {
			t.Fatalf("drain: got %d, want %d", p.ID, expect)
		}
		expect++
	}
}

// TestDropTailInvariants checks conservation with random operations:
// arrived = dropped + dequeued + queued.
func TestDropTailInvariants(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		q := NewDropTail(int(limit%20)+1, 0)
		var id uint64
		for _, enq := range ops {
			if enq {
				id++
				q.Enqueue(pkt(id, 1, packet.TCP))
			} else {
				q.Dequeue()
			}
		}
		return q.Arrived == q.Dropped+q.Dequeued+int64(q.Len())
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDropTailCombinedLimits(t *testing.T) {
	// Packet limit 3 AND byte limit 250: whichever is hit first drops.
	q := NewDropTail(3, 250)
	if !q.Enqueue(pkt(1, 100, packet.TCP)) || !q.Enqueue(pkt(2, 100, packet.TCP)) {
		t.Fatal("first two packets dropped")
	}
	if q.Enqueue(pkt(3, 100, packet.TCP)) {
		t.Error("byte limit not enforced before packet limit")
	}
	if !q.Enqueue(pkt(4, 50, packet.TCP)) {
		t.Error("packet fitting in bytes rejected")
	}
	if q.Enqueue(pkt(5, 1, packet.TCP)) {
		t.Error("packet limit not enforced")
	}
}
