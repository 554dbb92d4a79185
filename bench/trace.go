package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/fgs"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// The traced run repeats a workload with wrappers armed on the seams the
// server already exposes — Clock, Out, LinkConfig.Marker, Config.NewScaler,
// ServerConfig.Tune. Every wrapper counts each call (counts are exact) and
// times 1 call in 64 into a span (times are sampled), so tracing stays a
// few percent of the run and that cost is itself reported as
// trace.overhead_frac. Spans live in a preallocated ring and are written
// out, if asked, when the run ends. End-to-end metrics never come from a
// traced run.

// Span names, also the layer a span's time is attributed to.
const (
	spanLinkWrite = iota // Out.WriteTo: the shaping link's enqueue (parent of the two below)
	spanGatewayMark
	spanGatewayPriority
	spanClockSleep
	spanScalerBudget
	spanTune
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"link.write", "gateway.mark", "gateway.priority", "clock.sleep", "scaler.budget", "server.tune",
}

// spanParents names the span a kind nests in (-1: a root).
var spanParents = [numSpanKinds]int{-1, spanLinkWrite, spanLinkWrite, -1, -1, -1}

// span is one timed call. Spans of one (flow, frame) share id.
type span struct {
	kind       uint8
	id         uint64 // flow<<32 | frame; 0 where no datagram is in hand
	start, end int64  // unix ns
}

// spanRingSize bounds the spans kept: at 1 in 64 a 10 s loop-mem run makes
// about 20 k, so the ring normally holds them all and otherwise keeps the
// most recent.
const spanRingSize = 1 << 16

// kindStats aggregates one span kind: exact call count, sampled time.
type kindStats struct {
	calls     atomic.Uint64
	sampled   atomic.Uint64
	sampledNs atomic.Int64
}

// nsPerCall is the mean sampled duration.
func (k *kindStats) nsPerCall() float64 {
	n := k.sampled.Load()
	if n == 0 {
		return 0
	}
	return float64(k.sampledNs.Load()) / float64(n)
}

// tracer collects what the wrappers see.
type tracer struct {
	kinds [numSpanKinds]kindStats
	ring  []span
	next  atomic.Uint64

	nowCalls  atomic.Uint64
	overshoot hist // actual - requested Sleep, ns
}

func newTracer() *tracer { return &tracer{ring: make([]span, spanRingSize)} }

// add records one sampled span.
func (t *tracer) add(kind int, id uint64, start, end int64) {
	k := &t.kinds[kind]
	k.sampled.Add(1)
	k.sampledNs.Add(end - start)
	i := t.next.Add(1) - 1
	t.ring[i%spanRingSize] = span{kind: uint8(kind), id: id, start: start, end: end}
}

// spanID derives the shared (flow, frame) identifier from a data datagram.
func spanID(b []byte) uint64 {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		return 0
	}
	return uint64(h.Flow)<<32 | uint64(h.Frame)
}

// writeSpans dumps the ring as JSON lines: name, parent, id, start, end.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := t.next.Load()
	if n > spanRingSize {
		n = spanRingSize
	}
	for _, s := range t.ring[:n] {
		rec := struct {
			Name   string `json:"name"`
			Parent string `json:"parent,omitempty"`
			ID     uint64 `json:"id"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{Name: spanNames[s.kind], ID: s.id, Start: s.start, End: s.end}
		if p := spanParents[s.kind]; p >= 0 {
			rec.Parent = spanNames[p]
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}

// tracedClock wraps the server's clock: Now calls are counted, every Sleep
// is a span and its overshoot (actual minus requested) a histogram sample.
type tracedClock struct {
	inner session.Clock
	t     *tracer
}

func (c tracedClock) Now() time.Time {
	c.t.nowCalls.Add(1)
	return c.inner.Now()
}

func (c tracedClock) Sleep(ctx context.Context, d time.Duration) error {
	k := &c.t.kinds[spanClockSleep]
	n := k.calls.Add(1)
	start := time.Now()
	err := c.inner.Sleep(ctx, d)
	end := time.Now()
	if err == nil {
		c.t.overshoot.record(int64(end.Sub(start) - d))
	}
	if n&63 == 0 {
		c.t.add(spanClockSleep, 0, start.UnixNano(), end.UnixNano())
	}
	return err
}

// tracedOut wraps ServerConfig.Out.
type tracedOut struct {
	inner wire.PacketWriter
	t     *tracer
}

func (o tracedOut) WriteTo(b []byte, addr net.Addr) (int, error) {
	o.t.kinds[spanLinkWrite].calls.Add(1)
	if !traceSampled(b) {
		return o.inner.WriteTo(b, addr)
	}
	id := spanID(b)
	start := time.Now().UnixNano()
	n, err := o.inner.WriteTo(b, addr)
	o.t.add(spanLinkWrite, id, start, time.Now().UnixNano())
	return n, err
}

// tracedMarker wraps the link's Marker (the gateway).
type tracedMarker struct {
	inner wire.Marker
	t     *tracer
}

func (m tracedMarker) Mark(b []byte) bool {
	m.t.kinds[spanGatewayMark].calls.Add(1)
	if !traceSampled(b) {
		return m.inner.Mark(b)
	}
	id := spanID(b)
	start := time.Now().UnixNano()
	drop := m.inner.Mark(b)
	m.t.add(spanGatewayMark, id, start, time.Now().UnixNano())
	return drop
}

func (m tracedMarker) Priority(b []byte) int {
	m.t.kinds[spanGatewayPriority].calls.Add(1)
	if !traceSampled(b) {
		return m.inner.Priority(b)
	}
	id := spanID(b)
	start := time.Now().UnixNano()
	p := m.inner.Priority(b)
	m.t.add(spanGatewayPriority, id, start, time.Now().UnixNano())
	return p
}

// tracedScaler wraps a session's frame scaler: one Budget call is one
// frame planned.
type tracedScaler struct {
	inner fgs.Scaler
	t     *tracer
}

func (s tracedScaler) Budget(frame int, rate units.BitRate, interval time.Duration) int {
	k := &s.t.kinds[spanScalerBudget]
	if k.calls.Add(1)&63 != 0 {
		return s.inner.Budget(frame, rate, interval)
	}
	start := time.Now().UnixNano()
	n := s.inner.Budget(frame, rate, interval)
	s.t.add(spanScalerBudget, uint64(frame), start, time.Now().UnixNano())
	return n
}

// tune is the ServerConfig.Tune hook of a traced run: one call is one
// admission that got as far as building a session.
func (t *tracer) tune(k session.Key, _ *session.Config) {
	now := time.Now().UnixNano()
	t.kinds[spanTune].calls.Add(1)
	t.add(spanTune, uint64(k.Flow)<<32, now, now)
}
