package fgs

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// FrameResult summarizes one decoded frame: what arrived, and how much of
// it is useful. Enhancement packets are useful only as a consecutive prefix
// starting right after the base layer (paper §3.1): the first gap renders
// all later enhancement data undecodable.
type FrameResult struct {
	Frame        int
	BaseComplete bool
	// RecvBase and RecvEnh count received packets per layer.
	RecvBase int
	RecvEnh  int
	// UsefulEnh is the length of the consecutive received enhancement
	// prefix (0 if the base layer is incomplete — nothing can be enhanced
	// without it).
	UsefulEnh int
	// MaxIndex is the highest packet index received for this frame.
	MaxIndex int
}

// Utility returns the per-frame utility: useful enhancement packets over
// received enhancement packets (paper eq. 3 numerator/denominator at frame
// granularity). A frame with no received enhancement packets has utility 1
// by convention (nothing was wasted).
func (r FrameResult) Utility() float64 {
	if r.RecvEnh == 0 {
		return 1
	}
	return float64(r.UsefulEnh) / float64(r.RecvEnh)
}

// UsefulBytes returns the decodable enhancement payload given the packet
// size.
func (r FrameResult) UsefulBytes(packetSize int) int {
	if !r.BaseComplete {
		return 0
	}
	return r.UsefulEnh * packetSize
}

// Decoder reassembles frames from received packet (frame, index) pairs and
// computes useful-prefix statistics. It tolerates arbitrary reordering.
//
// A frame is held as a received bitmap of ⌈TotalPackets/64⌉ words plus its
// packet count and highest index. Storage is paged: pageFrames consecutive
// frame numbers share one page, and one map entry per page finds it. At
// the paper's 126 packets a frame, a stream of consecutive frames costs
// about 36 B a frame, map included, and a lone frame costs one page, about
// 280 B. Pages are allocated once and never copied. The last page used is
// cached, so the packets of one frame, which arrive together, skip the map.
type Decoder struct {
	spec  FrameSpec
	words int // bitmap words per frame
	// frames counts the frames seen, so Frames can size its result.
	frames int
	pages  map[int]*page // frame >> pageShift → page
	// lastKey and last cache the page Receive used most recently. No frame
	// maps to a negative key, so -1 means none.
	lastKey int
	last    *page
}

const (
	pageShift  = 3
	pageFrames = 1 << pageShift
)

type page struct {
	rows [pageFrames]row
	bits []uint64 // pageFrames × words: the frames' received bitmaps
}

// row is one frame's tally; maxIndex < 0 marks a frame never seen.
type row struct {
	count, maxIndex int32
}

// NewDecoder returns a decoder for streams packetized with spec.
func NewDecoder(spec FrameSpec) (*Decoder, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.TotalPackets > math.MaxInt32 {
		return nil, fmt.Errorf("fgs: decoder holds at most %d packets per frame, got %d", math.MaxInt32, spec.TotalPackets)
	}
	return &Decoder{
		spec:    spec,
		words:   (spec.TotalPackets + 63) / 64,
		pages:   make(map[int]*page),
		lastKey: -1,
	}, nil
}

// MustNewDecoder is NewDecoder that panics on invalid specs.
func MustNewDecoder(spec FrameSpec) *Decoder {
	d, err := NewDecoder(spec)
	if err != nil {
		panic(err)
	}
	return d
}

// Receive records the arrival of the packet at (frame, index). Duplicate
// and out-of-range indices are ignored.
func (d *Decoder) Receive(frame, index int) {
	if index < 0 || index >= d.spec.TotalPackets || frame < 0 {
		return
	}
	key, slot := frame>>pageShift, frame&(pageFrames-1)
	pg := d.last
	if key != d.lastKey {
		pg = d.pages[key]
		if pg == nil {
			pg = &page{bits: make([]uint64, pageFrames*d.words)}
			for i := range pg.rows {
				pg.rows[i].maxIndex = -1
			}
			d.pages[key] = pg
		}
		d.lastKey, d.last = key, pg
	}
	w := &pg.bits[slot*d.words+index>>6]
	bit := uint64(1) << (index & 63)
	if *w&bit != 0 {
		return
	}
	*w |= bit
	r := &pg.rows[slot]
	if r.maxIndex < 0 {
		d.frames++
	}
	r.count++
	r.maxIndex = max(r.maxIndex, int32(index))
}

// Frame finalizes and returns the result for one frame. Frames never seen
// return a zero-valued result for that frame number.
func (d *Decoder) Frame(frame int) FrameResult {
	return d.result(d.pages[frame>>pageShift], frame)
}

// result decodes frame from its page (nil if the page was never made).
func (d *Decoder) result(pg *page, frame int) FrameResult {
	res := FrameResult{Frame: frame, MaxIndex: -1}
	if pg == nil {
		return res
	}
	slot := frame & (pageFrames - 1)
	r := pg.rows[slot]
	if r.maxIndex < 0 {
		return res
	}
	received := pg.bits[slot*d.words : (slot+1)*d.words]
	g := d.spec.GreenPackets
	res.MaxIndex = int(r.maxIndex)
	res.RecvBase = onesBelow(received, g)
	res.RecvEnh = int(r.count) - res.RecvBase
	res.BaseComplete = res.RecvBase == g
	if res.BaseComplete {
		res.UsefulEnh = runFrom(received, g)
	}
	return res
}

// onesBelow counts the set bits of b below bit n.
func onesBelow(b []uint64, n int) int {
	c := 0
	for _, w := range b[:n>>6] {
		c += bits.OnesCount64(w)
	}
	if r := n & 63; r != 0 {
		c += bits.OnesCount64(b[n>>6] & (1<<r - 1))
	}
	return c
}

// runFrom returns the length of the run of set bits of b that starts at
// bit i. Bits past TotalPackets are never set, so the run stops there.
func runFrom(b []uint64, i int) int {
	n := 0
	for w, off := i>>6, i&63; w < len(b); w, off = w+1, 0 {
		z := bits.TrailingZeros64(^(b[w] >> off))
		n += z
		if z < 64-off {
			break
		}
	}
	return n
}

// Frames returns results for every frame seen, ordered by frame number.
func (d *Decoder) Frames() []FrameResult {
	keys := make([]int, 0, len(d.pages))
	for k := range d.pages {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]FrameResult, 0, d.frames)
	for _, k := range keys {
		pg := d.pages[k]
		for slot, r := range pg.rows {
			if r.maxIndex >= 0 {
				out = append(out, d.result(pg, k<<pageShift|slot))
			}
		}
	}
	return out
}

// StreamStats aggregates utility over a set of frame results.
type StreamStats struct {
	Frames        int
	BaseComplete  int
	RecvEnhTotal  int
	UsefulTotal   int
	MeanUseful    float64
	MeanUtility   float64 // mean of per-frame utilities
	AggregateUtil float64 // total useful / total received enhancement
}

// Aggregate computes stream-level statistics from frame results.
func Aggregate(frames []FrameResult) StreamStats {
	var s StreamStats
	s.Frames = len(frames)
	if s.Frames == 0 {
		return s
	}
	var utilSum float64
	for _, f := range frames {
		if f.BaseComplete {
			s.BaseComplete++
		}
		s.RecvEnhTotal += f.RecvEnh
		s.UsefulTotal += f.UsefulEnh
		utilSum += f.Utility()
	}
	s.MeanUseful = float64(s.UsefulTotal) / float64(s.Frames)
	s.MeanUtility = utilSum / float64(s.Frames)
	if s.RecvEnhTotal > 0 {
		s.AggregateUtil = float64(s.UsefulTotal) / float64(s.RecvEnhTotal)
	} else {
		s.AggregateUtil = 1
	}
	return s
}
