// Package session is the multi-tenant layer between the wire codec and
// the pelsd binary: one UDP socket, one demux path, thousands of
// concurrent PELS streams.
//
// The pieces, bottom up:
//
//   - Wheel is a hashed timing wheel (internal/timewheel, instantiated
//     for sessions). Every session schedules its next send on it, so
//     the number of pacing goroutines is a property of the
//     server (one driver plus a small worker pool), not of the session
//     count: a goroutine per stream would not survive into the
//     thousands-of-streams regime. The driver hands a
//     tick's fired sessions to a worker a chunk at a time, so the channel
//     operation, clock read and wheel lock of the hand-off are paid per
//     chunk, not per datagram. A new session skips the wheel once: admit
//     sends it to a worker directly, so its first datagram does not wait
//     for a tick.
//   - Table is the sharded session table, keyed by (peer address, flow
//     ID) with a lock and an obs registry per shard, so hello admission,
//     feedback dispatch, and reaping contend only within a shard.
//   - Batcher coalesces decoded feedback datagrams with a count+maxWait
//     policy: a burst of echoes is demuxed once and applied as a batch,
//     without per-packet goroutine wakeups.
//   - Session is one receiver's stream and the live stack's only sending
//     end host: the driver of its own fgs.Sender (MKC, γ and the frame
//     plan, every frame split into priority layers by the γ ladder; the
//     simulator's pels.Source drives the same core) and of a token bucket,
//     shaped as a pump state machine the wheel can drive.
//   - Server owns the socket pair (raw reads, shaped writes), the demux
//     loop, the wheel driver, the workers, and the session lifecycle:
//     hello → streaming → drain or idle-timeout reap → closed.
//
// The package never reads the wall clock: every instant is passed in, and
// blocking waits go through the injected Clock (wire.SystemClock in
// production, synthetic clocks in tests). pelsvet's walltime analyzer
// enforces this, which is what keeps the wheel, batcher, and session
// state machines deterministic under test.
package session
