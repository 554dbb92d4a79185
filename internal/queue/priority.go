package queue

import (
	"repro/internal/packet"
)

// PriorityConfig sizes the per-layer buffers of the PELS queue set. Limits
// are in packets; 0 means unlimited.
//
// The three named fields size the paper's green/yellow/red triple. When
// LayerLimits is non-nil it overrides them and its length sets the number
// of priority layers (2..packet.MaxLayers); LayerLimits[0] sizes the base
// layer, the last entry the top layer.
type PriorityConfig struct {
	GreenLimit  int
	YellowLimit int
	RedLimit    int

	// LayerLimits generalizes the triple to N layers. Nil means the
	// classic 3-layer configuration built from the named fields.
	LayerLimits []int
}

// DefaultPriorityConfig returns the buffer sizing used by the paper-scale
// experiments: generous green/yellow buffers (their loss should be ~0 in
// normal operation) and a shallow red buffer. Red packets exist to be
// dropped during congestion; a deep red buffer only adds queueing delay to
// packets that are mostly discarded anyway (the paper's red delays top out
// around 400 ms).
func DefaultPriorityConfig() PriorityConfig {
	return PriorityConfig{GreenLimit: 100, YellowLimit: 100, RedLimit: 10}
}

// NLayerPriorityConfig returns an N-layer sizing that mirrors the default
// triple: a generous buffer for every protected layer and a shallow one for
// the top (probe) layer.
func NLayerPriorityConfig(n int) PriorityConfig {
	limits := make([]int, n)
	for i := range limits {
		limits[i] = 100
	}
	limits[n-1] = 10
	return PriorityConfig{LayerLimits: limits}
}

// limits resolves the per-layer packet limits for the configuration.
func (cfg PriorityConfig) limits() []int {
	if cfg.LayerLimits != nil {
		return cfg.LayerLimits
	}
	return []int{cfg.GreenLimit, cfg.YellowLimit, cfg.RedLimit}
}

// NumLayers returns the number of priority layers the configuration builds.
func (cfg PriorityConfig) NumLayers() int { return len(cfg.limits()) }

// EnhancementCapacity returns the summed packet limit of every layer above
// the base layer — the sizing the best-effort baseline uses for its single
// FIFO standing in for the enhancement buffers.
func (cfg PriorityConfig) EnhancementCapacity() int {
	limits := cfg.limits()
	total := 0
	for _, l := range limits[1:] {
		total += l
	}
	return total
}

// Priority is the strict-priority set of the PELS layer queues (paper
// §4.1, generalized from three colors to N ordered layers): layer 0 (the
// base layer, green) is always served before layer 1, layer 1 before
// layer 2, and so on. Starvation of the top queue is by design — top-layer
// packets exist to be lost or delayed during congestion, protecting the
// layers below.
type Priority struct {
	layers []*DropTail
}

var _ Discipline = (*Priority)(nil)

// NewPriority builds the layer queue set. It panics when the configuration
// resolves to fewer than 2 or more than packet.MaxLayers layers.
func NewPriority(cfg PriorityConfig) *Priority {
	limits := cfg.limits()
	if len(limits) < 2 || len(limits) > packet.MaxLayers {
		panic("queue: priority layer count out of range")
	}
	layers := make([]*DropTail, len(limits))
	for i, limit := range limits {
		layers[i] = NewDropTail(limit, 0)
	}
	return &Priority{layers: layers}
}

// NumLayers returns the number of priority layers.
func (pq *Priority) NumLayers() int { return len(pq.layers) }

// Layer returns the queue of priority layer i, or nil when i is out of
// range. Experiments use it to read per-layer loss and occupancy.
func (pq *Priority) Layer(i int) *DropTail {
	if i < 0 || i >= len(pq.layers) {
		return nil
	}
	return pq.layers[i]
}

// Enqueue places the packet in its layer queue. Non-PELS colors and layers
// beyond the configured count are rejected: the caller (the WRR scheduler)
// must route them elsewhere.
func (pq *Priority) Enqueue(p *packet.Packet) bool {
	q := pq.queueFor(p.Color)
	if q == nil {
		return false
	}
	return q.Enqueue(p)
}

// Dequeue serves the highest-priority non-empty layer queue.
func (pq *Priority) Dequeue() *packet.Packet {
	for _, q := range pq.layers {
		if p := q.Dequeue(); p != nil {
			return p
		}
	}
	return nil
}

// Len implements Discipline.
func (pq *Priority) Len() int {
	n := 0
	for _, q := range pq.layers {
		n += q.Len()
	}
	return n
}

// Bytes implements Discipline.
func (pq *Priority) Bytes() int {
	n := 0
	for _, q := range pq.layers {
		n += q.Bytes()
	}
	return n
}

//pelsvet:noalloc
func (pq *Priority) queueFor(c packet.Color) *DropTail {
	layer, ok := c.Layer()
	if !ok || layer >= len(pq.layers) {
		return nil
	}
	return pq.layers[layer]
}

// ColorCounters returns a snapshot of the counters for color c (zero value
// for non-PELS colors).
func (pq *Priority) ColorCounters(c packet.Color) Counters {
	if q := pq.queueFor(c); q != nil {
		return q.Counters
	}
	return Counters{}
}
