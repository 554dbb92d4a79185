package session

import (
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// ServerConfig parameterizes the multi-session server.
type ServerConfig struct {
	// Conn is the server socket: hellos and feedback are read from it.
	// Required.
	Conn net.PacketConn
	// Out is where sessions write data datagrams — normally the
	// wire.ShapedConn wrapping Conn, so every session shares one
	// software bottleneck. Nil means Conn itself (no shaping).
	Out wire.PacketWriter
	// Clock supplies every instant and every blocking wait. Required
	// (wire.SystemClock in production).
	Clock Clock
	// Session is the per-session template; it is defaulted and validated
	// once at server construction.
	Session Config
	// Tune, if non-nil, adjusts the template per admitted session (e.g.
	// per-flow MKC weights). The tuned config is re-validated; a config
	// Tune breaks rejects the hello instead of panicking the server.
	Tune func(key Key, cfg *Config)
	// Shards is the session-table shard count; 0 selects 8.
	Shards int
	// MaxSessions bounds concurrent sessions; hellos beyond it are
	// rejected. 0 selects 8192.
	MaxSessions int
	// IdleTimeout reaps sessions whose receiver has been silent (no
	// feedback, no hello) for this long; 0 selects 10s, negative
	// disables reaping.
	IdleTimeout time.Duration
	// StuckTimeout arms the per-session stuck watchdog: a session with
	// neither accepted feedback nor a datagram sent for this long is
	// reaped with Close(stuck). 0 disables.
	StuckTimeout time.Duration
	// RejectRetryAfter is the retry-after hint carried by Reject
	// datagrams; 0 selects 500ms, negative sends no hint.
	RejectRetryAfter time.Duration
	// Overload parameterizes server-wide graceful layer shedding; the
	// zero value (Capacity 0) disables it.
	Overload OverloadConfig
	// WheelTick is the pacing wheel granularity; 0 selects 1ms. Sends
	// quantize to it: a coarser tick means burstier pacing, never a
	// lower rate (the token bucket repays elapsed time).
	WheelTick time.Duration
	// Workers is the pump goroutine pool size; 0 selects 4. Together
	// with the wheel driver, the demux loop and a parked collector
	// (collectQuiet) this is the server's entire goroutine budget —
	// independent of the session count.
	Workers int
	// ExitWhenIdle makes Run return once at least one session has been
	// admitted and the table drains to empty — the single-shot pelsd and
	// load-test mode. Off, the server serves until its context ends.
	ExitWhenIdle bool
	// Obs, if non-nil, registers the server's aggregate counters and
	// gauges under the "session." prefix; nil keeps them on a private
	// registry. Stats reads the counters back, so a registry serves one
	// server. Per-shard registries live on the table regardless
	// (Server.Table().Registries()).
	Obs *obs.Registry
}

// withDefaults fills zero-valued fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.Out == nil {
		c.Out = c.Conn
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8192
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * time.Second
	}
	if c.WheelTick <= 0 {
		c.WheelTick = time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	switch {
	case c.RejectRetryAfter == 0:
		c.RejectRetryAfter = 500 * time.Millisecond
	case c.RejectRetryAfter < 0:
		c.RejectRetryAfter = 0
	}
	c.Session = c.Session.WithDefaults()
	return c
}

// ServerStats is a snapshot of the server's aggregate counters.
type ServerStats struct {
	Active         int
	Datagrams      uint64
	Bytes          uint64
	Admitted       uint64
	Completed      uint64
	Reaped         uint64
	ReapedStuck    uint64
	Rejected       uint64
	RejectedFull   uint64
	RejectedDrain  uint64
	RejectedConfig uint64
	AdmitRaces     uint64
	AdmitFallbacks uint64 // admissions that found the lane full and wait for the next tick
	Hellos         uint64
	ControlSent    uint64 // Reject and Close datagrams written
	FeedbackItems  uint64
	// FeedbackBatches equals FeedbackItems: every label is applied on its
	// own, on arrival.
	FeedbackBatches uint64
	WheelTimers     int
	// Overload controller view: current shed level, last load score, and
	// how many shed/restore transitions have happened.
	ShedLevel int
	Load      float64
	Sheds     uint64
	Restores  uint64
}
