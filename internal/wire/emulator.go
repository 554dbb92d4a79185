package wire

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// EmuAddr is the net.Addr of an emulator endpoint.
type EmuAddr string

// Network implements net.Addr.
func (EmuAddr) Network() string { return "pels-emu" }

// String implements net.Addr.
func (a EmuAddr) String() string { return string(a) }

// EmulatorConfig shapes the two directions of an emulated point-to-point
// link independently: AtoB carries the video stream, BtoA the feedback
// reverse path.
type EmulatorConfig struct {
	AtoB LinkConfig
	BtoA LinkConfig
}

// Emulator is a deterministic in-process link implementing the same
// net.PacketConn surface a UDP socket provides, so the live server and
// receiver swarm run unmodified over it in CI — no sockets, no privileges.
// Given a fixed seed, the random-loss pattern is a deterministic function
// of the datagram sequence.
type Emulator struct {
	a, b *endpoint
	ab   *link
	ba   *link
}

// NewEmulator builds the link and both endpoints.
func NewEmulator(cfg EmulatorConfig) *Emulator {
	e := &Emulator{
		a: newEndpoint("emu-a"),
		b: newEndpoint("emu-b"),
	}
	// Boxed once: an EmuAddr turned into a net.Addr per datagram would
	// allocate per datagram.
	aAddr, bAddr := net.Addr(e.a.addr), net.Addr(e.b.addr)
	e.ab = newLink(cfg.AtoB, func(b []byte, _ net.Addr) bool { return e.b.deliverFrom(b, aAddr) })
	e.ba = newLink(cfg.BtoA, func(b []byte, _ net.Addr) bool { return e.a.deliverFrom(b, bAddr) })
	e.a.link, e.a.in = e.ab, e.ba
	e.b.link, e.b.in = e.ba, e.ab
	return e
}

// A returns the sender-side endpoint; datagrams written to it traverse
// the AtoB link.
func (e *Emulator) A() net.PacketConn { return e.a }

// B returns the receiver-side endpoint.
func (e *Emulator) B() net.PacketConn { return e.b }

// StatsAtoB returns the forward link's counters.
func (e *Emulator) StatsAtoB() LinkStats { return e.ab.Stats() }

// StatsBtoA returns the reverse link's counters.
func (e *Emulator) StatsBtoA() LinkStats { return e.ba.Stats() }

// Close shuts both endpoints and drains the links.
func (e *Emulator) Close() error {
	e.a.close()
	e.b.close()
	e.ab.close()
	e.ba.close()
	e.ab.wait()
	e.ba.wait()
	return nil
}

// inboxCap bounds buffered datagrams per endpoint; beyond it the endpoint
// behaves like a full socket buffer and drops.
const inboxCap = 4096

// received is one datagram waiting in an endpoint's inbox. b is a buffer of
// the inbound link, on loan until the reader has copied it out.
type received struct {
	b    []byte
	from net.Addr
}

// endpoint is one side of the emulated link.
type endpoint struct {
	addr EmuAddr
	link *link // outbound direction; set by NewEmulator
	in   *link // inbound direction, whose buffers the inbox holds

	inbox chan received
	done  chan struct{}

	mu       sync.Mutex
	closed   bool
	deadline time.Time
	overruns uint64

	timer *time.Timer // the reader's, reused so a read that waits does not allocate
}

var _ net.PacketConn = (*endpoint)(nil)

func newEndpoint(name string) *endpoint {
	return &endpoint{
		addr:  EmuAddr(name),
		inbox: make(chan received, inboxCap),
		done:  make(chan struct{}),
	}
}

// deliverFrom is the inbound link's deliver: it reports whether the inbox
// took b, which the reader then gives back to the link.
func (ep *endpoint) deliverFrom(b []byte, from net.Addr) (kept bool) {
	select {
	case ep.inbox <- received{b: b, from: from}:
		return true
	case <-ep.done:
	default:
		ep.mu.Lock()
		ep.overruns++
		ep.mu.Unlock()
	}
	return false
}

// ReadFrom implements net.PacketConn. A datagram already in the inbox is
// served first, with no clock read and no timer; only a read that has to
// wait parks, on the endpoint's one timer, so no read allocates. The
// deadline is sampled at entry: a SetReadDeadline from another goroutine
// takes effect on the next call, which matches how the wire loops use it
// (deadline set before each read). Close unblocks pending reads. One
// goroutine reads an endpoint at a time, as every wire loop does.
func (ep *endpoint) ReadFrom(p []byte) (int, net.Addr, error) {
	ep.mu.Lock()
	deadline := ep.deadline
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return 0, nil, net.ErrClosed
	}
	select {
	case r := <-ep.inbox:
		return ep.copyInto(p, r)
	default:
	}
	var expired <-chan time.Time
	if !deadline.IsZero() {
		d := time.Until(deadline)
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
	case r := <-ep.inbox:
		if expired != nil {
			stopTimer(ep.timer)
		}
		return ep.copyInto(p, r)
	case <-expired:
		return 0, nil, os.ErrDeadlineExceeded
	case <-ep.done:
		if expired != nil {
			stopTimer(ep.timer)
		}
		return 0, nil, net.ErrClosed
	}
}

// copyInto hands r to the reader: its bytes are copied into p and its buffer
// goes back to the link it came from.
func (ep *endpoint) copyInto(p []byte, r received) (int, net.Addr, error) {
	n, size := copy(p, r.b), len(r.b)
	ep.in.release(r.b)
	if n < size {
		return n, r.from, fmt.Errorf("wire: %d-byte datagram truncated into %d-byte buffer", size, len(p))
	}
	return n, r.from, nil
}

// WriteTo implements net.PacketConn. The destination address is ignored:
// the emulator is point-to-point and everything written here traverses
// the endpoint's outbound link.
func (ep *endpoint) WriteTo(p []byte, _ net.Addr) (int, error) {
	ep.mu.Lock()
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	ep.link.send(p, nil)
	return len(p), nil
}

// Close implements net.PacketConn.
func (ep *endpoint) close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.closed = true
	close(ep.done)
}

// Close implements net.PacketConn.
func (ep *endpoint) Close() error {
	ep.close()
	return nil
}

// LocalAddr implements net.PacketConn.
func (ep *endpoint) LocalAddr() net.Addr { return ep.addr }

// SetDeadline implements net.PacketConn (write deadlines are moot —
// writes never block).
func (ep *endpoint) SetDeadline(t time.Time) error { return ep.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn.
func (ep *endpoint) SetReadDeadline(t time.Time) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.deadline = t
	return nil
}

// SetWriteDeadline implements net.PacketConn.
func (ep *endpoint) SetWriteDeadline(time.Time) error { return nil }

// Overruns reports datagrams dropped because the endpoint's inbox was
// full (a reader that stopped draining).
func (ep *endpoint) Overruns() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.overruns
}

// ShapedConn wraps a real net.PacketConn with an outbound shaping link:
// writes pass through loss → marking → bounded priority queue →
// serialization → delay before reaching the inner socket, while reads are
// untouched. cmd/pelsd uses it as a software bottleneck so a localhost
// stream still exercises the whole PELS control loop.
type ShapedConn struct {
	net.PacketConn
	link *link
}

// NewShapedConn shapes writes to inner with cfg.
func NewShapedConn(inner net.PacketConn, cfg LinkConfig) *ShapedConn {
	s := &ShapedConn{PacketConn: inner}
	s.link = newLink(cfg, func(b []byte, to net.Addr) bool {
		// Delivery errors have nowhere to go; a lossy link is part of
		// the model.
		_, _ = inner.WriteTo(b, to)
		return false // a PacketConn is done with b when WriteTo returns
	})
	return s
}

// WriteTo implements net.PacketConn by enqueueing into the shaping link.
func (s *ShapedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	s.link.send(p, addr)
	return len(p), nil
}

// Stats returns the shaping link's counters.
func (s *ShapedConn) Stats() LinkStats { return s.link.Stats() }

// Close drains the shaping link, then closes the inner conn.
func (s *ShapedConn) Close() error {
	s.link.close()
	s.link.wait()
	return s.PacketConn.Close()
}
