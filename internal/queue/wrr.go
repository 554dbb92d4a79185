package queue

import (
	"fmt"

	"repro/internal/packet"
)

// WRRClass describes one class of a weighted round-robin scheduler: a
// queueing discipline, its link-share weight, and a classifier deciding
// which packets belong to it.
type WRRClass struct {
	Name     string
	Disc     Discipline
	Weight   float64
	Classify func(p *packet.Packet) bool
}

// WRR is a work-conserving weighted round-robin scheduler. The PELS router
// uses it with two classes — the PELS priority set and the Internet FIFO —
// to allocate a configured fraction of the outgoing link to each traffic
// type (paper §4.1, Fig. 4 left).
//
// The implementation uses virtual service times (served bytes normalized by
// weight): Dequeue serves the backlogged class with the smallest normalized
// service, which converges to weight-proportional byte shares for any
// packet size mix, like deficit round-robin but without quantum tuning.
type WRR struct {
	classes []*wrrClass
	// vnow is the scheduler's virtual time: the normalized service of the
	// most recently served class. A class returning from idle starts at
	// vnow so it can neither claim credit accumulated while idle nor be
	// starved by credit other classes accumulated in the meantime.
	vnow float64
}

type wrrClass struct {
	WRRClass
	vtime float64 // served bytes / weight
}

var _ Discipline = (*WRR)(nil)

// NewWRR builds a scheduler over the given classes. Weights must be
// positive; classes are matched in order, and packets matching no class are
// dropped (and counted against no class).
func NewWRR(classes ...WRRClass) (*WRR, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("queue: WRR needs at least one class")
	}
	w := &WRR{classes: make([]*wrrClass, 0, len(classes))}
	for _, c := range classes {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("queue: WRR class %q has non-positive weight %v", c.Name, c.Weight)
		}
		if c.Disc == nil {
			return nil, fmt.Errorf("queue: WRR class %q has nil discipline", c.Name)
		}
		if c.Classify == nil {
			return nil, fmt.Errorf("queue: WRR class %q has nil classifier", c.Name)
		}
		w.classes = append(w.classes, &wrrClass{WRRClass: c})
	}
	return w, nil
}

// MustNewWRR is NewWRR that panics on configuration errors; intended for
// experiment setup code with static configurations.
func MustNewWRR(classes ...WRRClass) *WRR {
	w, err := NewWRR(classes...)
	if err != nil {
		panic(err)
	}
	return w
}

// Enqueue routes the packet to the first matching class.
func (w *WRR) Enqueue(p *packet.Packet) bool {
	for _, c := range w.classes {
		if !c.Classify(p) {
			continue
		}
		wasEmpty := c.Disc.Len() == 0
		ok := c.Disc.Enqueue(p)
		if ok && wasEmpty && c.vtime < w.vnow {
			c.vtime = w.vnow
		}
		return ok
	}
	return false
}

// Dequeue serves the backlogged class with the smallest normalized service.
func (w *WRR) Dequeue() *packet.Packet {
	var best *wrrClass
	for _, c := range w.classes {
		if c.Disc.Len() == 0 {
			continue
		}
		if best == nil || c.vtime < best.vtime {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	p := best.Disc.Dequeue()
	if p != nil {
		best.vtime += float64(p.Size) / best.Weight
		w.vnow = best.vtime
	}
	return p
}

// Len implements Discipline.
func (w *WRR) Len() int {
	n := 0
	for _, c := range w.classes {
		n += c.Disc.Len()
	}
	return n
}

// Bytes implements Discipline.
func (w *WRR) Bytes() int {
	n := 0
	for _, c := range w.classes {
		n += c.Disc.Bytes()
	}
	return n
}
