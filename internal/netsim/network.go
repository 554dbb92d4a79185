package netsim

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/units"
)

// Network owns nodes and links, assigns identities, and computes static
// shortest-path routes. It corresponds to the topology layer of ns2.
type Network struct {
	eng    *sim.Engine
	nodes  []Node
	adj    map[int][]edge // node id -> outgoing edges
	nextID int
	pktID  uint64

	// pool, when non-nil, backs NewPacket with a free list. Hosts, routers
	// and links created after EnablePacketPool return packets to it at
	// their terminal consumption points.
	pool *packet.Pool
}

type edge struct {
	to   int
	link *Link
}

// NewNetwork creates an empty topology driven by eng.
func NewNetwork(eng *sim.Engine) *Network {
	return &Network{eng: eng, adj: make(map[int][]edge)}
}

// Engine returns the driving simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// EnablePacketPool makes NewPacket draw from a free list, with packets
// returned when they terminate (delivered to a host app, discarded by a
// router with no route, or dropped by a link). It must be called before the
// topology is built, so every node and link carries the pool reference.
//
// Pooling is opt-in because it changes the ownership contract: once
// enabled, apps and link hooks must not retain a *Packet beyond the
// callback that delivered it (copy the values instead). All stacks in this
// repository obey that rule; ad-hoc tests that collect packet pointers must
// simply not enable the pool.
func (n *Network) EnablePacketPool() {
	if len(n.nodes) > 0 {
		panic("netsim: EnablePacketPool after topology construction")
	}
	n.pool = &packet.Pool{}
}

// Pool returns the packet free list, or nil when pooling is disabled.
func (n *Network) Pool() *packet.Pool { return n.pool }

// NewHost adds a host to the topology.
func (n *Network) NewHost(name string) *Host {
	h := &Host{id: n.nextID, name: name, eng: n.eng, pool: n.pool}
	n.nextID++
	n.nodes = append(n.nodes, h)
	return h
}

// NewRouter adds a router to the topology.
func (n *Network) NewRouter(name string) *Router {
	r := &Router{id: n.nextID, name: name, pool: n.pool}
	n.nextID++
	n.nodes = append(n.nodes, r)
	return r
}

// LinkConfig describes one direction of a connection.
type LinkConfig struct {
	Rate  units.BitRate
	Delay time.Duration
	// Disc is the queueing discipline; nil means an unbounded drop-tail
	// FIFO (appropriate for uncongested access links).
	Disc queue.Discipline
}

// Connect creates a duplex connection between a and b and returns the two
// unidirectional links (a→b, b→a). If a or b is a host, the created link
// becomes its uplink (hosts have a single default route).
func (n *Network) Connect(a, b Node, ab, ba LinkConfig) (*Link, *Link) {
	fwd := NewLink(n.eng, fmt.Sprintf("%s->%s", a.Name(), b.Name()), ab.Rate, ab.Delay, ab.Disc, b)
	rev := NewLink(n.eng, fmt.Sprintf("%s->%s", b.Name(), a.Name()), ba.Rate, ba.Delay, ba.Disc, a)
	fwd.pool = n.pool
	rev.pool = n.pool
	n.adj[a.ID()] = append(n.adj[a.ID()], edge{to: b.ID(), link: fwd})
	n.adj[b.ID()] = append(n.adj[b.ID()], edge{to: a.ID(), link: rev})
	if h, ok := a.(*Host); ok {
		h.SetUplink(fwd)
	}
	if h, ok := b.(*Host); ok {
		h.SetUplink(rev)
	}
	return fwd, rev
}

// ComputeRoutes fills every router's table with next-hop links along
// hop-count shortest paths (BFS per destination). Hosts keep their single
// uplink as a default route and need no table.
func (n *Network) ComputeRoutes() error {
	for _, dst := range n.nodes {
		// BFS backwards from dst over the reversed graph would be ideal;
		// since all our connections are duplex, forward BFS from dst over
		// adj gives the same hop distances.
		dist := map[int]int{dst.ID(): 0}
		frontier := []int{dst.ID()}
		for len(frontier) > 0 {
			var next []int
			for _, u := range frontier {
				for _, e := range n.adj[u] {
					if _, seen := dist[e.to]; !seen {
						dist[e.to] = dist[u] + 1
						next = append(next, e.to)
					}
				}
			}
			frontier = next
		}
		for _, node := range n.nodes {
			r, ok := node.(*Router)
			if !ok || r.ID() == dst.ID() {
				continue
			}
			d, reach := dist[r.ID()]
			if !reach {
				continue
			}
			routed := false
			for _, e := range n.adj[r.ID()] {
				if nd, ok := dist[e.to]; ok && nd == d-1 {
					r.SetRoute(dst.ID(), e.link)
					routed = true
					break
				}
			}
			if !routed {
				return fmt.Errorf("netsim: no next hop from %s to %s", r.Name(), dst.Name())
			}
		}
	}
	return nil
}

// NewPacket allocates a packet with a unique ID, drawing from the free
// list when pooling is enabled.
func (n *Network) NewPacket(flowID, dst, size int, color packet.Color) *packet.Packet {
	n.pktID++
	if n.pool != nil {
		p := n.pool.Get()
		p.ID = n.pktID
		p.FlowID = flowID
		p.Dst = dst
		p.Size = size
		p.Color = color
		return p
	}
	return &packet.Packet{
		ID:     n.pktID,
		FlowID: flowID,
		Dst:    dst,
		Size:   size,
		Color:  color,
	}
}

// Nodes returns all nodes in creation order. The returned slice is shared;
// callers must not mutate it.
func (n *Network) Nodes() []Node { return n.nodes }
