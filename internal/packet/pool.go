package packet

// Pool is a LIFO free list of Packets. It removes per-packet heap
// allocations from the simulator's hot path: Network.NewPacket draws from
// the pool and the terminal consumption points (host delivery, router
// no-route discard, link drops) return packets to it.
//
// The pool is deterministic by construction: Get and Put run on the
// single-threaded simulation loop, the free list is LIFO, and Get fully
// zeroes the packet before reuse, so pooled and freshly allocated runs are
// indistinguishable. Packet holds only value fields (no pointers, no
// slices), which is what makes the fault injector's duplicate-by-copy and
// this reset-by-assignment safe.
//
// Safety: Put panics on double free (the one bug class that silently
// corrupts a simulation, by letting two in-flight owners share one object).
// Packets that never reach a terminal point are simply collected by the GC;
// leaking from the pool is harmless.
type Pool struct {
	free []*Packet
}

// Get returns a zeroed packet, reusing a freed one when available.
func (pl *Pool) Get() *Packet {
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{}
		return p
	}
	return &Packet{}
}

// Put returns p to the free list. It panics if p is already in the pool.
func (pl *Pool) Put(p *Packet) {
	if p.inPool {
		panic("packet: Put of packet already in pool (double free)")
	}
	p.inPool = true
	pl.free = append(pl.free, p)
}
