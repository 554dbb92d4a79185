package queue

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func TestOracleFIFONeverDropsGreen(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewOracleFIFO(0, func() float64 { return 1 }, rng)
	for i := uint64(0); i < 100; i++ {
		if !q.Enqueue(pkt(i, 100, packet.Green)) {
			t.Fatal("green packet dropped by oracle")
		}
	}
}

func TestOracleFIFODropRateTracksOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := NewOracleFIFO(0, func() float64 { return 0.2 }, rng)
	total := 50000
	drops := 0
	for i := 0; i < total; i++ {
		if !q.Enqueue(pkt(uint64(i), 100, packet.BestEffort)) {
			drops++
		} else {
			q.Dequeue()
		}
	}
	rate := float64(drops) / float64(total)
	// No green traffic: the compensation divisor is 1, so the realized
	// rate equals the oracle value.
	if rate < 0.18 || rate > 0.22 {
		t.Errorf("drop rate = %.4f, want ~0.20", rate)
	}
}

// TestOracleFIFOCompensation verifies that with a protected green share g,
// total realized drops still match the oracle's target loss measured over
// ALL arrivals: enhancement packets are dropped with probability p/(1−g).
func TestOracleFIFOCompensation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const target = 0.1
	q := NewOracleFIFO(0, func() float64 { return target }, rng)
	total := 200000
	drops := 0
	for i := 0; i < total; i++ {
		var p *packet.Packet
		if i%5 == 0 { // 20% green share
			p = pkt(uint64(i), 100, packet.Green)
		} else {
			p = pkt(uint64(i), 100, packet.BestEffort)
		}
		if !q.Enqueue(p) {
			drops++
		} else {
			q.Dequeue()
		}
	}
	rate := float64(drops) / float64(total)
	if rate < 0.09 || rate > 0.11 {
		t.Errorf("total drop rate = %.4f, want ~%.2f despite 20%% protected share", rate, target)
	}
	if gs := q.greenShare; gs < 0.17 || gs > 0.23 {
		t.Errorf("green share estimate = %.3f, want ~0.20", gs)
	}
}

func TestOracleFIFOBufferLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := NewOracleFIFO(5, func() float64 { return 0 }, rng)
	for i := uint64(0); i < 10; i++ {
		q.Enqueue(pkt(i, 100, packet.Green))
	}
	if q.Len() != 5 {
		t.Errorf("Len = %d, want 5", q.Len())
	}
	if q.Dropped != 5 {
		t.Errorf("Dropped = %d, want 5 (tail drops even for green)", q.Dropped)
	}
}

func TestOracleFIFONilLossFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := NewOracleFIFO(0, nil, rng)
	for i := uint64(0); i < 100; i++ {
		if !q.Enqueue(pkt(i, 100, packet.BestEffort)) {
			t.Fatal("packet dropped with nil (zero) loss oracle")
		}
	}
}

func TestOracleFIFOFIFOOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := NewOracleFIFO(0, func() float64 { return 0 }, rng)
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(pkt(i, 100, packet.Green))
	}
	for i := uint64(1); i <= 5; i++ {
		if p := q.Dequeue(); p == nil || p.ID != i {
			t.Fatalf("dequeue = %v, want id %d", p, i)
		}
	}
}
