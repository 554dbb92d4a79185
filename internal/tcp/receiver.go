package tcp

import (
	"sort"

	"repro/internal/netsim"
	"repro/internal/packet"
)

// Receiver is a TCP sink that delivers cumulative ACKs, buffering
// out-of-order segments. It implements netsim.App.
type Receiver struct {
	flow int
	net  *netsim.Network
	host *netsim.Host

	rcvNxt  int64
	ooo     map[int64]int // out-of-order segments: seq -> length
	bytesOK int64
}

var _ netsim.App = (*Receiver)(nil)

// NewReceiver attaches a TCP sink for the flow on host.
func NewReceiver(net *netsim.Network, host *netsim.Host, flow int) *Receiver {
	r := &Receiver{flow: flow, net: net, host: host, ooo: make(map[int64]int)}
	host.Attach(flow, r)
	return r
}

// HandlePacket implements netsim.App.
func (r *Receiver) HandlePacket(p *packet.Packet) {
	if p.Color != packet.TCP {
		return
	}
	seq, n := p.Seq, p.Size
	switch {
	case seq == r.rcvNxt:
		r.rcvNxt += int64(n)
		r.bytesOK += int64(n)
		r.drainOOO()
	case seq > r.rcvNxt:
		if _, dup := r.ooo[seq]; !dup {
			r.ooo[seq] = n
		}
	default:
		// Duplicate of already-delivered data; ACK re-announces rcvNxt.
	}
	r.sendAck(p.Src)
}

func (r *Receiver) drainOOO() {
	if len(r.ooo) == 0 {
		return
	}
	// Segment count is small (one window); sorting per delivery is fine.
	seqs := make([]int64, 0, len(r.ooo))
	for s := range r.ooo {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		if s != r.rcvNxt {
			if s < r.rcvNxt {
				delete(r.ooo, s)
				continue
			}
			break
		}
		n := r.ooo[s]
		delete(r.ooo, s)
		r.rcvNxt += int64(n)
		r.bytesOK += int64(n)
	}
}

func (r *Receiver) sendAck(to int) {
	ack := r.net.NewPacket(r.flow, to, ackSize, packet.ACK)
	ack.TCPAck = r.rcvNxt
	r.host.Send(ack)
}

// BytesDelivered returns in-order bytes delivered to the application.
func (r *Receiver) BytesDelivered() int64 { return r.bytesOK }
