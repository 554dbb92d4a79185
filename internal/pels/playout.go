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
	startup  time.Duration
	interval time.Duration

	started bool
	start   time.Duration

	onTime *fgs.Decoder

	latePkts    int64
	lateByColor map[packet.Color]int64
}

// NewPlayout builds a playout analyzer. Wire Observe to Sink.OnPacket.
func NewPlayout(spec fgs.FrameSpec, startup, interval time.Duration) (*Playout, error) {
	onTime, err := fgs.NewDecoder(spec)
	if err != nil {
		return nil, err
	}
	return &Playout{
		startup:     startup,
		interval:    interval,
		onTime:      onTime,
		lateByColor: make(map[packet.Color]int64),
	}, nil
}

// Observe records a data packet arrival at simulation time at.
func (pl *Playout) Observe(at time.Duration, p *packet.Packet) {
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

// OnTimeFrames returns decode results counting only packets that met their
// deadlines.
func (pl *Playout) OnTimeFrames() []fgs.FrameResult { return pl.onTime.Frames() }

// OnTimeStats aggregates the deadline-filtered decode statistics.
func (pl *Playout) OnTimeStats() fgs.StreamStats { return fgs.Aggregate(pl.OnTimeFrames()) }

// LatePackets returns the number of packets that arrived past their
// frame's deadline.
func (pl *Playout) LatePackets() int64 { return pl.latePkts }

// LateByColor returns late-packet counts per priority color. The returned
// map is live; callers must not mutate it.
func (pl *Playout) LateByColor() map[packet.Color]int64 { return pl.lateByColor }
