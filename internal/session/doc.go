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
//   - Session is one receiver's stream and the one sending end host of
//     both stacks: the driver of its own fgs.Sender (MKC, or the
//     controller its config builds; γ and the frame plan, every frame
//     split into priority layers by the γ ladder) and of a token bucket,
//     shaped as a pump state machine. It writes each layer in its own wire
//     color (best-effort's enhancement as packet.BestEffort), numbered in
//     that color's sequence space. The wheel drives it live; the
//     simulator's pels.Source drives it through Pump on simulated time,
//     with a one-packet bucket.
//   - Server is a passive core and its driver. The core (core.go) holds
//     the table, the wheel, admission, the session lifecycle (hello →
//     streaming → drain or idle-timeout reap → closed), the overload
//     controller and the counters, with no goroutine, channel or clock:
//     a datagram entry that admits a hello or applies a feedback label on
//     arrival, the pumps, and a tick. The driver (server.go) owns the
//     socket reads, the Clock, and the demux loop, wheel driver and
//     workers that feed the core and move timers between them.
//
// The package never reads the wall clock: every instant is passed in, and
// blocking waits go through the injected Clock (wire.SystemClock in
// production, synthetic clocks in tests). pelsvet's walltime analyzer
// enforces this, which is what keeps the wheel, the server core and the
// session state machines deterministic under test.
package session
