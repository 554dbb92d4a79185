package netsim

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// Node is a network element with an identity that can receive packets.
type Node interface {
	Receiver
	ID() int
	Name() string
}

// Processor inspects or mutates packets traversing a router (e.g. the PELS
// feedback stamper, paper §5.2). Process runs on packet arrival, before the
// packet is enqueued on its outgoing link.
type Processor interface {
	Process(p *packet.Packet)
}

// App consumes packets addressed to a host. Sources and sinks (PELS
// senders, video receivers, TCP endpoints) implement App.
type App interface {
	HandlePacket(p *packet.Packet)
}

// Host is an end system with a single uplink and a set of flow-addressed
// applications.
type Host struct {
	id     int
	name   string
	eng    *sim.Engine
	uplink *Link
	// apps is scanned linearly on every delivery: a host carries one or
	// two flows, where a scan beats hashing the flow ID.
	apps []flowApp
	pool *packet.Pool

	// DefaultApp, if set, receives packets whose flow has no registered
	// app (useful for promiscuous monitors).
	DefaultApp App
}

type flowApp struct {
	flow int
	app  App
}

var _ Node = (*Host)(nil)

// ID implements Node.
func (h *Host) ID() int { return h.id }

// Name implements Node.
func (h *Host) Name() string { return h.name }

// Attach registers app to receive packets of the given flow.
func (h *Host) Attach(flowID int, app App) {
	if i := h.find(flowID); i >= 0 {
		h.apps[i].app = app
		return
	}
	h.apps = append(h.apps, flowApp{flowID, app})
}

// detach removes the app registered for the flow, if any.
func (h *Host) detach(flowID int) {
	if i := h.find(flowID); i >= 0 {
		h.apps = append(h.apps[:i], h.apps[i+1:]...)
	}
}

// find returns the index in apps of the flow's registration, or -1.
func (h *Host) find(flowID int) int {
	for i := range h.apps {
		if h.apps[i].flow == flowID {
			return i
		}
	}
	return -1
}

// SetUplink points the host's default route at l.
func (h *Host) SetUplink(l *Link) { h.uplink = l }

// Send stamps the packet with source identity and creation time and pushes
// it onto the uplink. It panics if the host has no uplink, which indicates
// a topology construction bug.
func (h *Host) Send(p *packet.Packet) {
	if h.uplink == nil {
		panic("netsim: host " + h.name + " has no uplink")
	}
	p.Src = h.id
	p.Created = h.eng.Now()
	h.uplink.Send(p)
}

// Receive implements Receiver: packets are demultiplexed to apps by flow.
// A delivered packet terminates here — with pooling enabled it returns to
// the free list once the app callback finishes, so apps must copy any
// values they need rather than retain the pointer.
func (h *Host) Receive(p *packet.Packet) {
	if i := h.find(p.FlowID); i >= 0 {
		h.apps[i].app.HandlePacket(p)
	} else if h.DefaultApp != nil {
		h.DefaultApp.HandlePacket(p)
	}
	if h.pool != nil {
		h.pool.Put(p)
	}
}

// Router forwards packets by destination node using a static routing table
// filled in by Network.ComputeRoutes. Packet processing (the PELS feedback
// stamp) happens per output port, in the link's Proc.
type Router struct {
	id   int
	name string
	// routes is indexed by destination node ID (IDs are dense: the
	// network hands them out in creation order); nil means no route.
	routes []*Link
	pool   *packet.Pool
}

var _ Node = (*Router)(nil)

// ID implements Node.
func (r *Router) ID() int { return r.id }

// Name implements Node.
func (r *Router) Name() string { return r.name }

// SetRoute installs or replaces the outgoing link for the destination node.
func (r *Router) SetRoute(dst int, l *Link) {
	if dst >= len(r.routes) {
		r.routes = append(r.routes, make([]*Link, dst+1-len(r.routes))...)
	}
	r.routes[dst] = l
}

// Receive implements Receiver.
func (r *Router) Receive(p *packet.Packet) {
	var link *Link
	if uint(p.Dst) < uint(len(r.routes)) {
		link = r.routes[p.Dst]
	}
	if link == nil {
		if r.pool != nil {
			r.pool.Put(p)
		}
		return
	}
	link.Send(p)
}
