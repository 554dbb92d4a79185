package pels

import (
	"time"

	"repro/internal/fgs"
	"repro/internal/packet"
)

// Playout models the receiver's playout buffer, the paper's motivation for
// low-delay, retransmission-free transport (§1): playback starts Startup
// after the first packet arrives, frame f's decoding deadline is
// start + Startup + f·Interval, and packets arriving after their frame's
// deadline are useless no matter how intact they are. Filtering decode
// statistics through Playout turns queueing delay into quality — red
// packets that survived the network but sat 400 ms in the red queue
// (paper Fig. 9 left) still miss their deadlines, which is exactly why
// their loss "has very little effect on the resulting quality".
type Playout struct {
	sink     *Sink
	startup  time.Duration
	interval time.Duration

	started bool
	start   time.Duration

	// onTime decodes only the packets that met their deadline. The sink's
	// decoder has every arrival: a late packet was received but is useless.
	onTime *fgs.Decoder

	latePkts    int64
	lateByColor map[packet.Color]int64
}

// NewPlayout attaches a playout analyzer to sink, whose frames fall due one
// frame interval apart after startup. It takes over sink.OnPacket.
func NewPlayout(sink *Sink, startup time.Duration) *Playout {
	pl := &Playout{
		sink:        sink,
		startup:     startup,
		interval:    sink.cfg.FrameInterval,
		onTime:      fgs.MustNewDecoder(sink.cfg.Frame),
		lateByColor: make(map[packet.Color]int64),
	}
	sink.OnPacket = pl.observe
	return pl
}

// observe records a data packet arrival at simulation time at.
func (pl *Playout) observe(at time.Duration, p *packet.Packet) {
	if !pl.started {
		pl.started = true
		pl.start = at
	}
	if at <= pl.Deadline(p.Frame) {
		pl.onTime.Receive(p.Frame, p.Index)
		return
	}
	pl.latePkts++
	pl.lateByColor[p.Color]++
}

// Deadline returns the decoding deadline of the given frame. Before the
// first packet arrives the deadline is unknown; zero is returned.
func (pl *Playout) Deadline(frame int) time.Duration {
	if !pl.started {
		return 0
	}
	return pl.start + pl.startup + time.Duration(frame)*pl.interval
}

// OnTimeFrames returns the decode result of every frame that received a
// packet, with only the packets that met their deadline useful. The
// received counts include late packets, so a frame's utility is eq. 3's:
// useful on-time enhancement over all received enhancement.
func (pl *Playout) OnTimeFrames() []fgs.FrameResult {
	frames := pl.sink.Frames()
	for i, f := range frames {
		on := pl.onTime.Frame(f.Frame)
		frames[i].BaseComplete, frames[i].UsefulEnh = on.BaseComplete, on.UsefulEnh
	}
	return frames
}

// OnTimeStats aggregates the deadline-filtered decode statistics.
func (pl *Playout) OnTimeStats() fgs.StreamStats { return fgs.Aggregate(pl.OnTimeFrames()) }

// LatePackets returns the number of packets that arrived past their
// frame's deadline.
func (pl *Playout) LatePackets() int64 { return pl.latePkts }

// LateByColor returns late-packet counts per priority color. The returned
// map is live; callers must not mutate it.
func (pl *Playout) LateByColor() map[packet.Color]int64 { return pl.lateByColor }
