// Package wire is the live transport under the PELS framework: it carries
// the same colors, γ split, and in-band feedback labels that the simulator
// models in internal/netsim, but over real datagrams and wall-clock time.
//
// The package has five parts:
//
//   - A compact binary codec for the PELS wire header (color, frame,
//     per-color sequence, timestamp, and the router feedback label of
//     paper §5.2). A data datagram's color is any PELS layer's or
//     best-effort, each with its own sequence space (SeqSpace). Decode rejects malformed input with errors, never
//     panics, and round-trips byte-exactly, so the header can be fuzzed
//     and patched in place by routers.
//   - A wall-clock token-bucket Pacer that turns the MKC rate r(k) into
//     spaced datagrams. Time is passed in explicitly, which makes burst
//     bounds and clock-jump behavior unit-testable.
//   - A marking Gateway, the live counterpart of internal/aqm: it drives
//     the router core packet.Meter (R over an interval T, p = (R−C)/R,
//     paper eq. 11) on the wall clock, and stamps (router ID, epoch, p)
//     into passing datagrams with the max-loss override of eq. 8. It also
//     ranks datagrams by layer so congestion drops hit best-effort video
//     first, then the layers from the top down, and green last.
//   - Swarm, the receiving end host — one receiver (pelsget) or
//     thousands (pelsload) on a few sockets — driving one receiver core,
//     which measures loss per color from sequence gaps and echoes fresh
//     feedback labels on the reverse path. The sending end host is
//     session.Session, served by session.Server; it reuses internal/cc
//     (MKC) and internal/fgs (γ controller, packetizer) unchanged.
//   - An in-process link Emulator implementing net.PacketConn on both
//     ends, with configurable delay, bandwidth, queue size, and seeded
//     random loss, so the whole subsystem runs deterministically in CI
//     over loopback without privileges. The same shaping link backs
//     NewShapedConn, the software bottleneck cmd/pelsd puts in front of a
//     real UDP socket.
//
// The boundary with the simulator is deliberate: wire depends on packet,
// cc, fgs, and units — the pure control-plane packages — plus timewheel
// (the Swarm's receivers sleep on it), and never on sim or netsim. Everything above the socket (controllers, γ,
// packetization) is shared between the simulated and live stacks;
// everything below (queues, links, clocks) is swapped.
package wire
