package main

import (
	"errors"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// memnet is the benchmark's transport: a multi-endpoint in-memory datagram
// switch whose endpoints satisfy net.PacketConn. It exists so the live
// workloads measure the program and not the kernel: at a fixed offered
// load the same code repeats within a few percent over memnet, while over
// 127.0.0.1 a saturated server swings 2x second to second on a small VM
// (see README.md).
//
// Addresses are *net.UDPAddr on one fake IPv4 host, one port per endpoint,
// so the server's Key{Addr: from.String()} costs what it costs on a real
// socket. A write copies the datagram into a slot of the destination's
// bounded inbox ring (no allocation in steady state); a full inbox drops
// the datagram and counts it, like a full socket buffer.

// memHost is the address every memnet endpoint lives on.
var memHost = [4]byte{10, 77, 0, 1}

// memBasePort is the port of the first endpoint; endpoint i listens on
// memBasePort+i, which makes destination lookup an index, not a map.
const memBasePort = 20000

// errMsgSize mirrors EMSGSIZE: the datagram does not fit an inbox slot.
var errMsgSize = errors.New("memnet: datagram larger than the network's slot size")

// memNetwork owns the endpoints.
type memNetwork struct {
	slot     int // bytes per inbox slot
	inboxCap int // slots per inbox

	// eps is copy-on-write, so a write's destination lookup takes no lock;
	// index = port - memBasePort.
	eps atomic.Pointer[[]*memEndpoint]

	listenMu sync.Mutex // serializes listen's copy-and-swap of eps
}

// newMemNetwork builds a network whose inboxes hold inboxCap datagrams of
// at most slot bytes each.
func newMemNetwork(inboxCap, slot int) *memNetwork {
	n := &memNetwork{slot: slot, inboxCap: inboxCap}
	empty := []*memEndpoint{}
	n.eps.Store(&empty)
	return n
}

// listen opens a new endpoint on the next free port.
func (n *memNetwork) listen() *memEndpoint {
	n.listenMu.Lock()
	defer n.listenMu.Unlock()
	old := *n.eps.Load()
	port := memBasePort + len(old)
	ep := &memEndpoint{
		net:    n,
		addr:   &net.UDPAddr{IP: net.IP(memHost[:]), Port: port},
		ap:     netip.AddrPortFrom(netip.AddrFrom4(memHost), uint16(port)),
		buf:    make([]byte, n.inboxCap*n.slot),
		lens:   make([]int, n.inboxCap),
		froms:  make([]*memEndpoint, n.inboxCap),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	next := make([]*memEndpoint, len(old)+1)
	copy(next, old)
	next[len(old)] = ep
	n.eps.Store(&next)
	return ep
}

// lookup returns the endpoint listening on port, or nil.
func (n *memNetwork) lookup(port int) *memEndpoint {
	eps := *n.eps.Load()
	if i := port - memBasePort; i >= 0 && i < len(eps) {
		return eps[i]
	}
	return nil
}

// drops sums the inbox overflow drops of every endpoint.
func (n *memNetwork) drops() uint64 {
	var d uint64
	for _, ep := range *n.eps.Load() {
		d += ep.drops.Load()
	}
	return d
}

// memEndpoint is one memnet socket. One goroutine reads it at a time (the
// server's demux loop, a swarm read loop); any number may write to it.
type memEndpoint struct {
	net  *memNetwork
	addr *net.UDPAddr
	ap   netip.AddrPort

	drops    atomic.Uint64 // datagrams lost to a full inbox
	deadline atomic.Int64  // read deadline, unix ns; 0 = none

	mu      sync.Mutex
	buf     []byte         // inboxCap slots of net.slot bytes
	lens    []int          // datagram length per slot
	froms   []*memEndpoint // sender per slot
	head, n int
	waiting bool // the reader is parked on notify
	closed  bool

	notify chan struct{} // capacity 1: wakes the parked reader
	done   chan struct{}
	timer  *time.Timer // reader-owned, reused so a blocking read does not allocate
}

var _ net.PacketConn = (*memEndpoint)(nil)

// deliver copies b into the inbox; a full inbox drops it.
func (ep *memEndpoint) deliver(b []byte, from *memEndpoint) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return // a datagram to a closed port vanishes
	}
	if ep.n == ep.net.inboxCap {
		ep.mu.Unlock()
		ep.drops.Add(1)
		return
	}
	i := ep.head + ep.n
	if i >= ep.net.inboxCap {
		i -= ep.net.inboxCap
	}
	copy(ep.buf[i*ep.net.slot:], b)
	ep.lens[i] = len(b)
	ep.froms[i] = from
	ep.n++
	wake := ep.waiting
	ep.waiting = false
	ep.mu.Unlock()
	if wake {
		select {
		case ep.notify <- struct{}{}:
		default:
		}
	}
}

// read pops one datagram into p, blocking until one arrives, the deadline
// sampled at entry passes, or the endpoint closes.
func (ep *memEndpoint) read(p []byte) (int, *memEndpoint, error) {
	deadline := ep.deadline.Load()
	for {
		ep.mu.Lock()
		if ep.closed {
			ep.mu.Unlock()
			return 0, nil, net.ErrClosed
		}
		if ep.n > 0 {
			i := ep.head
			n := copy(p, ep.buf[i*ep.net.slot:i*ep.net.slot+ep.lens[i]])
			from := ep.froms[i]
			ep.froms[i] = nil
			if ep.head++; ep.head == ep.net.inboxCap {
				ep.head = 0
			}
			ep.n--
			ep.mu.Unlock()
			return n, from, nil
		}
		ep.waiting = true
		ep.mu.Unlock()

		var expired <-chan time.Time
		if deadline != 0 {
			d := time.Until(time.Unix(0, deadline))
			if d <= 0 {
				return 0, nil, os.ErrDeadlineExceeded
			}
			if ep.timer == nil {
				ep.timer = time.NewTimer(d)
			} else {
				ep.timer.Reset(d)
			}
			expired = ep.timer.C
		}
		select {
		case <-ep.notify:
			if expired != nil && !ep.timer.Stop() {
				// The module's go directive predates 1.23, so a fired
				// timer leaves its tick in the channel; drain it or the
				// next Reset would expire at once.
				select {
				case <-ep.timer.C:
				default:
				}
			}
		case <-expired:
			return 0, nil, os.ErrDeadlineExceeded
		case <-ep.done:
			return 0, nil, net.ErrClosed
		}
	}
}

// send resolves the destination port and delivers b there.
func (ep *memEndpoint) send(b []byte, port int) (int, error) {
	if len(b) > ep.net.slot {
		return 0, errMsgSize
	}
	if dst := ep.net.lookup(port); dst != nil {
		dst.deliver(b, ep)
	}
	return len(b), nil
}

// ReadFrom implements net.PacketConn. The returned address is the sending
// endpoint's own *net.UDPAddr (shared, immutable), so a steady-state read
// allocates nothing.
func (ep *memEndpoint) ReadFrom(p []byte) (int, net.Addr, error) {
	n, from, err := ep.read(p)
	if err != nil {
		return 0, nil, err
	}
	return n, from.addr, nil
}

// WriteTo implements net.PacketConn; addr must be a memnet *net.UDPAddr.
func (ep *memEndpoint) WriteTo(b []byte, addr net.Addr) (int, error) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, &net.AddrError{Err: "memnet: not a UDP address", Addr: addr.String()}
	}
	return ep.send(b, ua.Port)
}

// ReadFromUDPAddrPort and WriteToUDPAddrPort mirror *net.UDPConn, so a
// later netip fast path in the server that type-asserts for them runs —
// and can be measured — over memnet too.
func (ep *memEndpoint) ReadFromUDPAddrPort(p []byte) (int, netip.AddrPort, error) {
	n, from, err := ep.read(p)
	if err != nil {
		return 0, netip.AddrPort{}, err
	}
	return n, from.ap, nil
}

// WriteToUDPAddrPort is WriteTo for a netip destination.
func (ep *memEndpoint) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	return ep.send(b, int(addr.Port()))
}

// Close implements net.PacketConn; it unblocks a pending read.
func (ep *memEndpoint) Close() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.closed = true
		close(ep.done)
	}
	return nil
}

// LocalAddr implements net.PacketConn.
func (ep *memEndpoint) LocalAddr() net.Addr { return ep.addr }

// SetDeadline implements net.PacketConn (writes never block).
func (ep *memEndpoint) SetDeadline(t time.Time) error { return ep.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn. Like the emulator's, the
// deadline is sampled when a read starts, which is how the wire loops use
// it (set, then read).
func (ep *memEndpoint) SetReadDeadline(t time.Time) error {
	if t.IsZero() {
		ep.deadline.Store(0)
	} else {
		ep.deadline.Store(t.UnixNano())
	}
	return nil
}

// SetWriteDeadline implements net.PacketConn.
func (ep *memEndpoint) SetWriteDeadline(time.Time) error { return nil }
