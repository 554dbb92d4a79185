package fgs

import (
	"repro/internal/packet"
)

// PacketPlan describes the packets to transmit for one video frame under a
// rate budget and a red fraction γ (paper §4.2, Fig. 4 right): the base
// layer is all green, the lower (1−γ) share of the transmitted enhancement
// prefix is yellow, and the upper γ share is red.
type PacketPlan struct {
	Frame  int
	Green  int // base-layer packets
	Yellow int // protected enhancement packets
	Red    int // probe enhancement packets
	Gamma  float64
}

// Total returns the number of packets in the plan.
func (p PacketPlan) Total() int { return p.Green + p.Yellow + p.Red }

// EnhPackets returns the number of enhancement packets in the plan.
func (p PacketPlan) EnhPackets() int { return p.Yellow + p.Red }

// Bytes returns the plan size given the packet size.
func (p PacketPlan) Bytes(packetSize int) int { return p.Total() * packetSize }

// Color returns the PELS color of the packet at the given index within the
// frame (base layer first, then yellow, then red). It panics when index is
// outside [0, Total()): an out-of-range index means the caller is iterating
// a stale or mismatched plan, and silently answering Red (or Green for
// negatives) mislabels the packet — a bug this method used to have.
func (p PacketPlan) Color(index int) packet.Color {
	if index < 0 || index >= p.Total() {
		panic("fgs: packet index out of plan range")
	}
	switch {
	case index < p.Green:
		return packet.Green
	case index < p.Green+p.Yellow:
		return packet.Yellow
	default:
		return packet.Red
	}
}

// Packetizer turns a per-frame byte budget x_i (from congestion control)
// and the current γ into a packet plan.
type Packetizer struct {
	spec FrameSpec
}

// NewPacketizer builds a packetizer; spec must validate.
func NewPacketizer(spec FrameSpec) (*Packetizer, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Packetizer{spec: spec}, nil
}

// MustNewPacketizer is NewPacketizer that panics on invalid specs.
func MustNewPacketizer(spec FrameSpec) *Packetizer {
	p, err := NewPacketizer(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// RedShare selects the denominator that γ applies to when sizing the red
// segment of a frame.
type RedShare int

const (
	// RedShareTotal sizes red = γ·(all transmitted packets of the frame).
	// The router's loss feedback p = (R−C)/R is measured over all PELS
	// arrivals — base layer included — so using the same denominator for
	// γ makes the red loss p_R = p/γ converge exactly to p_thr (paper
	// Lemma 4). This is the default.
	RedShareTotal RedShare = iota + 1
	// RedShareEnhancement sizes red = γ·(transmitted enhancement packets),
	// the literal partitioning of paper Fig. 4 (right). Because the
	// feedback loss counts green bytes in its denominator while γ does
	// not, red loss stabilizes above p_thr by the base-layer share; the
	// ablation bench quantifies the offset.
	RedShareEnhancement
)

// PlanShare computes the packets for frame index given budget bytes, the red
// fraction gamma in [0,1] and the denominator share that γ applies to. The
// base layer is always sent in full (it is the minimum meaningful stream);
// the enhancement prefix uses the remaining budget up to R_max, split into
// yellow and red with at least one red packet whenever γ > 0 and any
// enhancement is sent, so the flow keeps probing for loss.
func (pk *Packetizer) PlanShare(frame int, budgetBytes int, gamma float64, share RedShare) PacketPlan {
	if gamma < 0 {
		gamma = 0
	}
	if gamma > 1 {
		gamma = 1
	}
	enhBudget := budgetBytes - pk.spec.BaseBytes()
	enhPkts := 0
	if enhBudget > 0 {
		enhPkts = enhBudget / pk.spec.PacketSize
		if max := pk.spec.EnhPackets(); enhPkts > max {
			enhPkts = max
		}
	}
	denom := enhPkts
	if share == RedShareTotal {
		denom = pk.spec.GreenPackets + enhPkts
	}
	red := int(gamma*float64(denom) + 0.5)
	if red == 0 && gamma > 0 && enhPkts > 0 {
		red = 1
	}
	if red > enhPkts {
		red = enhPkts
	}
	return PacketPlan{
		Frame:  frame,
		Green:  pk.spec.GreenPackets,
		Yellow: enhPkts - red,
		Red:    red,
		Gamma:  gamma,
	}
}
