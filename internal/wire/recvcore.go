package wire

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
)

// ColorCount accumulates delivery statistics for one PELS color.
type ColorCount struct {
	// Received datagrams of this color, and their wire bytes.
	Received uint64
	Bytes    uint64
	// Lost datagrams inferred from sequence gaps (a late reordered
	// arrival repays one loss).
	Lost uint64
}

// LossRate returns Lost / (Received + Lost), or 0 before any traffic.
func (c ColorCount) LossRate() float64 {
	total := c.Received + c.Lost
	if total == 0 {
		return 0
	}
	return float64(c.Lost) / float64(total)
}

// add folds d into the running count.
func (c *ColorCount) add(d ColorCount) {
	c.Received += d.Received
	c.Lost += d.Lost
	c.Bytes += d.Bytes
}

// ReportColors returns the colors a delivery report lists for counts, in
// layer order with best-effort last: the paper's green, yellow and red
// always, and every other data color that has traffic in counts.
func ReportColors(counts map[packet.Color]ColorCount) []packet.Color {
	var out []packet.Color
	for i := 0; i < SeqSpaces; i++ {
		if _, ok := counts[spaceColor(i)]; ok || i < 3 {
			out = append(out, spaceColor(i))
		}
	}
	return out
}

// ReceiverStats is a snapshot of one of a Swarm's receivers.
type ReceiverStats struct {
	Flow uint32
	// Datagrams and Bytes count accepted data datagrams (wire bytes);
	// Frames is the highest frame number seen, plus one.
	Datagrams, Bytes, Frames uint64
	// Colors holds per-color counts over the receiver's lifetime, streams
	// before a reconnect included.
	Colors map[packet.Color]ColorCount
	// SeqRegressions counts datagrams whose sequence ran backwards with no
	// loss to repay: on a loss-free link, another session's sequence space
	// leaking into this flow.
	SeqRegressions uint64
	// Epochs counts fresh labels seen in-band; LastFeedback is the latest.
	Epochs       uint64
	LastFeedback packet.Feedback
	// FeedbackSent counts feedback datagrams, Probes (idle re-echoes of
	// the last label) included.
	FeedbackSent uint64
	Probes       uint64
	HellosSent   uint64
	// Rejects and Closes from the server, and the latest of each.
	// Reconnects counts stream resets (a Close, or a swarm's storm);
	// Resumes counts those after which data flowed again.
	Rejects, Closes     uint64
	LastReject          Reason
	LastRejectRetry     time.Duration
	LastClose           Reason
	Reconnects, Resumes uint64
	// FirstAt/LastAt bracket the arrival interval, for Goodput.
	FirstAt, LastAt time.Time
	// Startup runs from the first hello (rejections and lost hellos count
	// against it) to the first data datagram; zero until data arrives.
	Startup time.Duration
	// Driver counts: CrossDeliveries (data read on another receiver's
	// socket: demux bleed on the server), and SteadyBytes since SteadyAt,
	// the last MarkSteady.
	CrossDeliveries uint64
	SteadyBytes     uint64
	SteadyAt        time.Time
}

// Goodput returns the delivered wire bitrate over the arrival interval.
func (s ReceiverStats) Goodput() units.BitRate { return rateOver(s.Bytes, s.FirstAt, s.LastAt) }

// SteadyRate is the delivered bitrate since MarkSteady — the per-session
// converged rate when the mark is placed after the ramp.
func (s ReceiverStats) SteadyRate() units.BitRate {
	return rateOver(s.SteadyBytes, s.SteadyAt, s.LastAt)
}

// rateOver is the bitrate of n bytes delivered from from to to; 0 over an
// empty interval.
func rateOver(n uint64, from, to time.Time) units.BitRate {
	if d := to.Sub(from); d > 0 {
		return units.RateFromBytes(int64(n), d)
	}
	return 0
}

// ErrHelloTimeout ends a receiver whose hello attempt budget ran out
// without data.
var ErrHelloTimeout = errors.New("wire: hello retries exhausted")

// RejectError ends a receiver the server refused for a reason that is not
// retryable.
type RejectError struct {
	Reason     Reason
	RetryAfter time.Duration
}

// Error renders the rejection with its retry hint.
func (e *RejectError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("wire: server rejected hello: %v (retry after %v)", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("wire: server rejected hello: %v", e.Reason)
}

// colorTrack is one color's sequence tracker.
type colorTrack struct {
	next  uint64 // next expected sequence number
	count ColorCount
	arch  ColorCount // counts folded in by resets
}

// helloPolicy is the subscription schedule a swarm's receivers share.
type helloPolicy struct {
	retry, max time.Duration // first backoff step, and its cap
	attempts   int           // unanswered hellos before giving up; 0 = unlimited
	reconnect  bool          // a retryable Close re-hellos instead of finishing
}

// RecvCore is one receiver's state machine, the swarm receiver less its
// driver's state: hello, retried with jittered exponential backoff, until
// data flows; then count per color and echo every fresh router label, until a
// Reject or Close ends the receiver or a Close sends it back to hello. It
// is passive — no clock, lock, goroutine or socket: the driver passes now,
// holds its own lock around every call, and writes the headers it gets
// back. Swarm drives all of it; the simulator's pels.Sink (NewRecvCore:
// it never hellos) only OnData, Label, Bytes and Stats.
type RecvCore struct {
	pol  *helloPolicy
	flow uint32
	st   ReceiverStats

	// colors tracks the paper's three layers; ext, allocated with the first
	// datagram of any other data color, the rest (track).
	colors [3]colorTrack
	ext    *[SeqSpaces - 3]colorTrack

	// fbSeq numbers echoes and probes. It survives reset, so a resumed
	// stream's echoes count on from the old one's; the server reads no
	// sequence on the reverse path (MKC dedups by epoch), the numbering is
	// for observers of the wire. Hellos carry sequence 0.
	fbSeq      uint64
	nextHello  time.Time
	helloWait  time.Duration // current backoff step, doubling toward pol.max
	tries      int           // hellos since the last (re)connect
	firstHello time.Time     // the first hello's instant; Startup counts from it
	jit        uint64        // xorshift state of the hello jitter
	streaming  bool          // data arrived since the last (re)connect
	resuming   bool          // reset happened; the next datagram counts a Resume
	done       bool
	err        error // why the receiver is done, nil for a graceful Close
}

// NewRecvCore returns a receiver for flow that never hellos: its stream
// arrives unasked.
func NewRecvCore(flow uint32) RecvCore { return newRecvCore(&helloPolicy{}, flow, 0, time.Time{}) }

// newRecvCore returns a receiver for flow whose first hello is due at
// start; seed and flow seed its jitter.
func newRecvCore(pol *helloPolicy, flow uint32, seed int64, start time.Time) RecvCore {
	return RecvCore{
		pol:       pol,
		flow:      flow,
		st:        ReceiverStats{Flow: flow},
		nextHello: start,
		helloWait: pol.retry,
		jit:       uint64(seed)*0x9E3779B97F4A7C15 + uint64(flow)*0xBF58476D1CE4E5B9 | 1,
	}
}

// jitter returns a deterministic pseudo-random duration in [0, d/4] for
// d > 0, so a crowd of rejected receivers does not re-hello in lockstep.
func (c *RecvCore) jitter(d time.Duration) time.Duration {
	c.jit ^= c.jit << 13
	c.jit ^= c.jit >> 7
	c.jit ^= c.jit << 17
	return time.Duration(c.jit % uint64(d/4+1))
}

// deferHello moves the next hello to at least now + d + jitter(d).
func (c *RecvCore) deferHello(now time.Time, d time.Duration) {
	if at := now.Add(d + c.jitter(d)); at.After(c.nextHello) {
		c.nextHello = at
	}
}

// helloing reports whether the receiver still waits for a stream.
func (c *RecvCore) helloing() bool { return !c.done && !c.streaming }

// hello takes the hello due at now, if one is: the next is scheduled one
// backoff step (plus jitter) later and the step doubles toward its cap.
// Once the attempt budget is spent the receiver ends with
// ErrHelloTimeout instead.
//
//pelsvet:noalloc
func (c *RecvCore) hello(now time.Time) (Header, bool) {
	if !c.helloing() || now.Before(c.nextHello) {
		return Header{}, false
	}
	if c.pol.attempts > 0 && c.tries >= c.pol.attempts {
		c.done, c.err = true, fmt.Errorf("%w: %d hellos unanswered (last reject: %v)", ErrHelloTimeout, c.tries, c.st.LastReject)
		return Header{}, false
	}
	c.tries++
	c.deferHello(now, c.helloWait)
	c.helloWait = min(2*c.helloWait, c.pol.max)
	if c.st.HellosSent == 0 {
		c.firstHello = now
	}
	c.st.HellosSent++
	return Header{Type: TypeHello, Color: packet.ACK, Flow: c.flow, Timestamp: now.UnixNano()}, true
}

// echo numbers one feedback datagram carrying fb.
//
//pelsvet:noalloc
func (c *RecvCore) echo(fb packet.Feedback, now time.Time) Header {
	c.fbSeq++
	c.st.FeedbackSent++
	return Header{Type: TypeFeedback, Color: packet.ACK, Flow: c.flow, Seq: c.fbSeq, Timestamp: now.UnixNano(), Feedback: fb}
}

// OnData applies one data datagram of n wire bytes received at now:
// per-color loss from sequence gaps, and the echo to send back when its
// label is fresh. A finished receiver drops data.
//
//pelsvet:noalloc
func (c *RecvCore) OnData(h Header, n int, now time.Time) (Header, bool) {
	space, ok := SeqSpace(h.Color)
	if c.done || !ok {
		return Header{}, false
	}
	if c.resuming {
		c.resuming = false
		c.st.Resumes++
	}
	c.streaming = true
	if c.st.Datagrams == 0 {
		c.st.FirstAt = now
		if !c.firstHello.IsZero() { // data nobody asked for has no startup
			c.st.Startup = now.Sub(c.firstHello)
		}
	}
	c.st.LastAt = now
	c.st.Datagrams++
	c.st.Bytes += uint64(n)
	c.st.Frames = max(c.st.Frames, uint64(h.Frame)+1)

	t := c.track(space, true)
	switch {
	case h.Seq >= t.next:
		t.count.Lost += h.Seq - t.next
		t.next = h.Seq + 1
	case t.count.Lost > 0:
		// A reordered late arrival repays one presumed loss.
		t.count.Lost--
	default:
		c.st.SeqRegressions++
	}
	t.count.Received++
	t.count.Bytes += uint64(n)

	if !h.Feedback.Valid || !fresher(h.Feedback, c.st.LastFeedback) {
		return Header{}, false
	}
	c.st.LastFeedback = h.Feedback
	c.st.Epochs++
	return c.echo(h.Feedback, now), true
}

// track returns sequence space i's tracker, or nil for one past the
// paper's three layers until grow allocates them, so a receiver of 3-layer
// streams (most of a swarm) carries no idle trackers.
//
//pelsvet:noalloc
func (c *RecvCore) track(i int, grow bool) *colorTrack {
	if i < len(c.colors) {
		return &c.colors[i]
	}
	if c.ext == nil {
		if !grow {
			return nil
		}
		//pelsvet:allow noalloc once per receiver, at its first datagram of another color
		c.ext = new([SeqSpaces - 3]colorTrack)
	}
	return &c.ext[i-len(c.colors)]
}

// fresher reports whether fb is a label the receiver has not yet echoed:
// a new router, or a newer epoch of the same router (mirrors the
// freshness rule the controllers apply, paper §5.2).
func fresher(fb, last packet.Feedback) bool {
	if !last.Valid {
		return true
	}
	return fb.RouterID != last.RouterID || fb.Epoch > last.Epoch
}

// onControl applies one Reject or Close. A Reject after data flows is
// stale and only counted; otherwise a retryable one floors the next hello
// at now + retry-after + jitter, and a permanent one ends the receiver
// with a *RejectError. Close(complete), or any Close with reconnect off,
// ends the receiver without error; another Close resets it and schedules
// the next hello one backoff step (floored at retry-after) later.
func (c *RecvCore) onControl(h Header, now time.Time) {
	if c.done {
		return
	}
	reason, ra := h.Reason(), h.RetryAfter()
	if h.Type == TypeReject {
		c.st.Rejects++
		c.st.LastReject, c.st.LastRejectRetry = reason, ra
		switch {
		case c.streaming:
		case !reason.Retryable():
			c.done, c.err = true, &RejectError{Reason: reason, RetryAfter: ra}
		case ra > 0:
			c.deferHello(now, ra)
		}
		return
	}
	c.st.Closes++
	c.st.LastClose = reason
	if reason == ReasonComplete || !c.pol.reconnect {
		c.done = true
		return
	}
	c.reset(now)
	c.deferHello(now, max(c.helloWait, ra))
}

// reset returns the receiver to helloing, due at now, for a fresh
// session: delivered counts fold into the archive, so loss accounting
// survives, and the trackers clear, so the new session's sequence spaces
// (restarting at zero) read neither as regressions nor as mass loss.
func (c *RecvCore) reset(now time.Time) {
	for i := 0; i < SeqSpaces; i++ {
		if t := c.track(i, false); t != nil {
			t.arch.add(t.count)
			t.next, t.count = 0, ColorCount{}
		}
	}
	c.st.LastFeedback = packet.Feedback{}
	c.st.Reconnects++
	c.streaming, c.resuming = false, true
	c.tries, c.helloWait, c.nextHello = 0, c.pol.retry, now
}

// Label returns the latest fresh label, the one the receiver echoes.
func (c *RecvCore) Label() packet.Feedback { return c.st.LastFeedback }

// Bytes returns the data bytes received, without building Stats' map.
func (c *RecvCore) Bytes() uint64 { return c.st.Bytes }

// Stats returns the receiver's stats.
func (c *RecvCore) Stats() ReceiverStats {
	st := c.st
	st.Colors = map[packet.Color]ColorCount{} // no hint: up to 8 colors fit one small map
	for i := 0; i < SeqSpaces; i++ {
		if t := c.track(i, false); t != nil && t.count.Received+t.arch.Received > 0 {
			n := t.count
			n.add(t.arch)
			st.Colors[spaceColor(i)] = n
		}
	}
	return st
}
