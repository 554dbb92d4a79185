// Package packet defines the packet model shared by all simulator layers:
// priority colors for the PELS framework (generalized from the paper's
// three colors to N ordered priority layers), the in-band congestion
// feedback header (paper §5.2), and video frame tagging used by the FGS
// decoder. It also holds the router core both stacks drive: Meter computes
// the label (eq. 11) and Feedback.Merge applies it (eq. 8).
package packet

import (
	"fmt"
	"strconv"
	"time"
)

// Color is a PELS priority class. The paper's three colors are priority
// layers 0-2: green carries the base layer, yellow the lower (protected)
// part of the FGS enhancement layer, and red the upper part that acts as
// congestion probes. Layers 3..MaxLayers-1 extend the model to the deeper
// quality ladders of real scalable codecs (8-layer SHVC bitstreams);
// LayerColor and Color.Layer convert between the two views. Best-effort
// marks non-PELS multimedia traffic (the baseline in §3.1) and TCP marks
// Internet-queue cross traffic. ACKs travel the reverse path and are never
// queued in PELS priority queues.
type Color int

// Priority classes, in decreasing order of importance.
const (
	Green Color = iota + 1
	Yellow
	Red
	BestEffort
	TCP
	ACK
)

// MaxLayers bounds the number of PELS priority layers the simulator
// supports. The three paper colors are layers 0-2; the bound leaves room
// for the 8-layer ladders of real scalable bitstreams with headroom.
const MaxLayers = 16

// extLayerBase is the Color of priority layer 3. Layers 0-2 keep the
// paper's Green/Yellow/Red values and BestEffort/TCP/ACK retain theirs,
// so extended layers continue after ACK. The wire carries every layer's
// color as it is (wire.SeqSpace).
const extLayerBase = ACK + 1

// LayerColor returns the Color of the PELS priority layer with the given
// index (0 = base layer = Green). It panics when layer is outside
// [0, MaxLayers).
func LayerColor(layer int) Color {
	if layer < 0 || layer >= MaxLayers {
		panic("packet: layer index out of range")
	}
	if layer < 3 {
		return Green + Color(layer)
	}
	return extLayerBase + Color(layer-3)
}

// Layer returns the priority-layer index of a PELS color (0 = base) and
// whether the color is a PELS layer at all. Non-PELS colors (best-effort,
// TCP, ACK) report false.
func (c Color) Layer() (int, bool) {
	switch {
	case c >= Green && c <= Red:
		return int(c - Green), true
	case c >= extLayerBase && c < extLayerBase+Color(MaxLayers-3):
		return int(c-extLayerBase) + 3, true
	}
	return 0, false
}

// LayerName returns the obs/CSV name of a priority layer: the paper's
// color names for layers 0-2, "layer<i>" beyond.
func LayerName(layer int) string {
	switch layer {
	case 0:
		return "green"
	case 1:
		return "yellow"
	case 2:
		return "red"
	default:
		return "layer" + strconv.Itoa(layer)
	}
}

var colorNames = map[Color]string{
	Green:      "green",
	Yellow:     "yellow",
	Red:        "red",
	BestEffort: "best-effort",
	TCP:        "tcp",
	ACK:        "ack",
}

// String returns the lower-case color name.
func (c Color) String() string {
	if s, ok := colorNames[c]; ok {
		return s
	}
	if l, ok := c.Layer(); ok {
		return LayerName(l)
	}
	return fmt.Sprintf("color(%d)", int(c))
}

// IsPELS reports whether the color belongs to one of the PELS priority
// layers (the three paper colors or an extended layer).
func (c Color) IsPELS() bool {
	return (c >= Green && c <= Red) || (c >= extLayerBase && c < extLayerBase+Color(MaxLayers-3))
}

// Feedback is the congestion feedback label (router ID, epoch z, packet
// loss p) inserted by PELS routers into the header of every passing packet
// (paper §5.2). When multiple routers sit on the path, each overrides the
// label only if its own loss is larger, providing max-min feedback from the
// most congested resource (paper eq. 8).
type Feedback struct {
	RouterID int
	Epoch    uint64
	Loss     float64
	Valid    bool
}

// Merge returns the feedback a router with (routerID, epoch, loss) should
// leave in a packet currently carrying f: the router overrides the label
// only when the packet has no label yet, when the label is its own (epoch
// refresh), or when its loss exceeds the recorded one.
func (f Feedback) Merge(routerID int, epoch uint64, loss float64) Feedback {
	if !f.Valid || f.RouterID == routerID || loss > f.Loss {
		return Feedback{RouterID: routerID, Epoch: epoch, Loss: loss, Valid: true}
	}
	return f
}

// Packet is a simulated network packet. Packets are passed by pointer and
// mutated in place by routers (feedback stamping) exactly once per hop.
type Packet struct {
	ID     uint64
	FlowID int
	Src    int
	Dst    int
	Size   int // bytes, including headers
	Color  Color

	// Video tagging: which FGS frame this packet belongs to and its
	// position within the frame (0-based). Index counts all packets of
	// the frame, base layer first.
	Frame int
	Index int

	// Feedback is the PELS congestion label carried in the header.
	Feedback Feedback

	// AckedFeedback carries the receiver's most recent feedback label back
	// to the source inside an ACK packet.
	AckedFeedback Feedback

	// Seq is a TCP segment's byte sequence number, or a PELS datagram's
	// per-color sequence number (the receiver counts loss from its gaps);
	// TCPAck is the cumulative acknowledgment number carried by TCP ACKs.
	Seq    int64
	TCPAck int64

	// Timestamps recorded by the simulator, all in simulation time.
	Created  time.Duration // when the source emitted the packet
	Enqueued time.Duration // when the packet entered the bottleneck queue
	Dequeued time.Duration // when the packet left the bottleneck queue

	// inPool guards against double free when the packet is managed by a
	// Pool. Get clears it via the full reset; struct copies (the fault
	// injector's duplicate path) naturally carry false.
	inPool bool
}

// QueueingDelay returns the time the packet spent in the last queue it
// traversed, or 0 if it was never queued.
func (p *Packet) QueueingDelay() time.Duration {
	if p.Dequeued < p.Enqueued {
		return 0
	}
	return p.Dequeued - p.Enqueued
}

// String renders a compact description for logs and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d flow=%d %s %dB frame=%d idx=%d}",
		p.ID, p.FlowID, p.Color, p.Size, p.Frame, p.Index)
}
