package queue

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func twoClassWRR(t *testing.T, w1, w2 float64) (*WRR, *DropTail, *DropTail) {
	t.Helper()
	a := NewDropTail(0, 0)
	b := NewDropTail(0, 0)
	w, err := NewWRR(
		WRRClass{Name: "pels", Disc: a, Weight: w1, Classify: func(p *packet.Packet) bool { return p.Color.IsPELS() }},
		WRRClass{Name: "internet", Disc: b, Weight: w2, Classify: func(p *packet.Packet) bool { return true }},
	)
	if err != nil {
		t.Fatal(err)
	}
	return w, a, b
}

func TestWRRClassification(t *testing.T) {
	w, a, b := twoClassWRR(t, 1, 1)
	w.Enqueue(pkt(1, 100, packet.Green))
	w.Enqueue(pkt(2, 100, packet.TCP))
	w.Enqueue(pkt(3, 100, packet.Yellow))
	if a.Len() != 2 || b.Len() != 1 {
		t.Errorf("class lengths = %d/%d, want 2/1", a.Len(), b.Len())
	}
}

func TestWRREqualWeightsAlternate(t *testing.T) {
	w, _, _ := twoClassWRR(t, 1, 1)
	for i := uint64(0); i < 10; i++ {
		w.Enqueue(pkt(i, 100, packet.Green))
		w.Enqueue(pkt(100+i, 100, packet.TCP))
	}
	counts := map[packet.Color]int{}
	for i := 0; i < 10; i++ {
		p := w.Dequeue()
		counts[p.Color]++
	}
	if counts[packet.Green] != 5 || counts[packet.TCP] != 5 {
		t.Errorf("after 10 dequeues: %v, want 5/5", counts)
	}
}

func TestWRRWeightedShares(t *testing.T) {
	w, _, _ := twoClassWRR(t, 3, 1)
	for i := uint64(0); i < 400; i++ {
		w.Enqueue(pkt(i, 100, packet.Green))
		w.Enqueue(pkt(1000+i, 100, packet.TCP))
	}
	counts := map[packet.Color]int{}
	for i := 0; i < 200; i++ {
		counts[w.Dequeue().Color]++
	}
	if counts[packet.Green] != 150 || counts[packet.TCP] != 50 {
		t.Errorf("3:1 shares over 200 dequeues = %v, want 150/50", counts)
	}
}

func TestWRRWeightedSharesByBytes(t *testing.T) {
	// Unequal packet sizes: fairness must hold in bytes, not packets.
	a := NewDropTail(0, 0)
	b := NewDropTail(0, 0)
	w := MustNewWRR(
		WRRClass{Name: "small", Disc: a, Weight: 1, Classify: func(p *packet.Packet) bool { return p.Color == packet.Green }},
		WRRClass{Name: "big", Disc: b, Weight: 1, Classify: func(p *packet.Packet) bool { return true }},
	)
	for i := uint64(0); i < 4000; i++ {
		w.Enqueue(pkt(i, 100, packet.Green))     // small packets
		w.Enqueue(pkt(10000+i, 500, packet.TCP)) // big packets
	}
	bytes := map[packet.Color]int{}
	for i := 0; i < 1200; i++ {
		p := w.Dequeue()
		bytes[p.Color] += p.Size
	}
	total := bytes[packet.Green] + bytes[packet.TCP]
	share := float64(bytes[packet.Green]) / float64(total)
	if share < 0.45 || share > 0.55 {
		t.Errorf("green byte share = %.3f, want ~0.5", share)
	}
}

func TestWRRWorkConserving(t *testing.T) {
	w, _, _ := twoClassWRR(t, 1, 1)
	// Only the internet class is backlogged; it must get the whole link.
	for i := uint64(0); i < 10; i++ {
		w.Enqueue(pkt(i, 100, packet.TCP))
	}
	for i := 0; i < 10; i++ {
		if p := w.Dequeue(); p == nil || p.Color != packet.TCP {
			t.Fatalf("dequeue %d = %v, want TCP packet", i, p)
		}
	}
}

func TestWRRIdleClassDoesNotAccumulateCredit(t *testing.T) {
	w, _, _ := twoClassWRR(t, 1, 1)
	// Serve 100 internet packets while PELS is idle.
	for i := uint64(0); i < 100; i++ {
		w.Enqueue(pkt(i, 100, packet.TCP))
		w.Dequeue()
	}
	// Now both classes backlogged: PELS must NOT get a 100-packet burst.
	for i := uint64(0); i < 50; i++ {
		w.Enqueue(pkt(200+i, 100, packet.Green))
		w.Enqueue(pkt(300+i, 100, packet.TCP))
	}
	counts := map[packet.Color]int{}
	for i := 0; i < 40; i++ {
		counts[w.Dequeue().Color]++
	}
	if counts[packet.Green] > 25 {
		t.Errorf("returning class burst: got %d/40 green, want ~20", counts[packet.Green])
	}
}

func TestWRRDropsUnmatchedPackets(t *testing.T) {
	a := NewDropTail(0, 0)
	w := MustNewWRR(WRRClass{
		Name: "only-green", Disc: a, Weight: 1,
		Classify: func(p *packet.Packet) bool { return p.Color == packet.Green },
	})
	if w.Enqueue(pkt(1, 100, packet.TCP)) {
		t.Error("unmatched packet accepted")
	}
	if !w.Enqueue(pkt(2, 100, packet.Green)) {
		t.Error("matched packet rejected")
	}
}

func TestWRRConfigErrors(t *testing.T) {
	d := NewDropTail(0, 0)
	classify := func(p *packet.Packet) bool { return true }
	cases := map[string][]WRRClass{
		"no classes":   {},
		"zero weight":  {{Name: "x", Disc: d, Weight: 0, Classify: classify}},
		"nil disc":     {{Name: "x", Disc: nil, Weight: 1, Classify: classify}},
		"nil classify": {{Name: "x", Disc: d, Weight: 1, Classify: nil}},
	}
	for name, classes := range cases {
		if _, err := NewWRR(classes...); err == nil {
			t.Errorf("NewWRR(%s) succeeded, want error", name)
		}
	}
}

func TestWRRClassAccessor(t *testing.T) {
	w, a, _ := twoClassWRR(t, 1, 1)
	if got := w.class("pels"); got != Discipline(a) {
		t.Error("Class(pels) returned wrong discipline")
	}
	if w.class("nope") != nil {
		t.Error("Class(nope) != nil")
	}
}

func TestWRRLenBytes(t *testing.T) {
	w, _, _ := twoClassWRR(t, 1, 1)
	w.Enqueue(pkt(1, 100, packet.Green))
	w.Enqueue(pkt(2, 300, packet.TCP))
	if w.Len() != 2 || w.Bytes() != 400 {
		t.Errorf("Len/Bytes = %d/%d, want 2/400", w.Len(), w.Bytes())
	}
}

// TestWRRLongRunShares drives random arrivals through a 2:1 scheduler and
// verifies long-run byte shares under continuous backlog.
func TestWRRLongRunShares(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	w, _, _ := twoClassWRR(t, 2, 1)
	served := map[packet.Color]int{}
	var id uint64
	refill := func() {
		for i := 0; i < 20; i++ {
			id++
			if rng.Intn(2) == 0 {
				w.Enqueue(pkt(id, 100+rng.Intn(400), packet.Yellow))
			} else {
				w.Enqueue(pkt(id, 100+rng.Intn(400), packet.TCP))
			}
		}
	}
	for round := 0; round < 500; round++ {
		refill()
		for i := 0; i < 10; i++ {
			if p := w.Dequeue(); p != nil {
				served[p.Color] += p.Size
			}
		}
	}
	total := served[packet.Yellow] + served[packet.TCP]
	share := float64(served[packet.Yellow]) / float64(total)
	if share < 0.62 || share > 0.71 {
		t.Errorf("2:1 long-run byte share = %.3f, want ~0.667", share)
	}
}
