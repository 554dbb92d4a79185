// Command pelsget receives a PELS stream from pelsd and reports
// per-color delivery statistics.
//
// It runs a one-receiver wire.Swarm, the same receiver pelsload runs by
// the thousand. It hellos the server, retrying with jittered exponential
// backoff (bounded by -hello-attempts) until data flows. A retryable
// Reject delays the next hello by its retry-after hint; a permanent one
// ends the run. A Close finishes the stream (complete) or, with
// -reconnect, re-enters the hello loop as a fresh session. Every fresh
// router label is echoed back as feedback, closing the MKC/γ loops; when
// data stalls for -probe-idle the last label is re-echoed, backing off to
// 8 × -probe-idle, so a sender cut off by a transient outage regains
// feedback quickly.
//
// Usage:
//
//	pelsget [-addr 127.0.0.1:9000] [-duration 10s] [-idle 1s]
//	        [-flow 1] [-max-green-loss -1]
//	        [-hello-retry 200ms] [-hello-attempts 25] [-reconnect]
//	        [-probe-idle 500ms]
//
// Key=value statistics print on exit — one line per color plus stream
// totals — so scripts and CI assert on them (e.g. grep '^green .*lost=0'),
// and -max-green-loss makes base-layer protection the exit status.
// pelsget also exits nonzero when the hello budget runs out, the server
// refuses the flow for good, or the run ends without data (the error
// names the last Reject), so harnesses tell "server full / unreachable"
// from a served-but-lossy stream.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pelsget:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9000", "pelsd address")
	duration := flag.Duration("duration", 10*time.Second, "overall wall-clock limit (0 = until idle or interrupt)")
	idle := flag.Duration("idle", time.Second, "exit after this long without traffic once the stream started")
	flow := flag.Uint("flow", 1, "flow identifier")
	maxGreenLoss := flag.Float64("max-green-loss", -1,
		"fail (exit 1) if green loss rate exceeds this; negative disables the check")
	helloRetry := flag.Duration("hello-retry", 200*time.Millisecond,
		"initial hello retry interval (doubles with jitter until data flows)")
	helloAttempts := flag.Int("hello-attempts", 25,
		"give up (exit 1) after this many unanswered hellos (0 = unlimited)")
	reconnect := flag.Bool("reconnect", false,
		"re-hello after a retryable server Close instead of exiting")
	probeIdle := flag.Duration("probe-idle", 500*time.Millisecond,
		"re-echo the last feedback label after this long without data, backing off to 8x (0 = off)")
	flag.Parse()
	if *flow == 0 {
		return errors.New("-flow must be nonzero")
	}

	raddr, err := net.ResolveUDPAddr("udp", *addr)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}

	recv, err := wire.NewSwarm(wire.SwarmConfig{
		Server:        raddr,
		Receivers:     1,
		FirstFlow:     uint32(*flow),
		HelloRetry:    *helloRetry,
		HelloAttempts: *helloAttempts,
		ProbeIdle:     *probeIdle,
		Reconnect:     *reconnect,
		Listen:        func() (net.PacketConn, error) { return net.ListenPacket("udp", ":0") },
	}, time.Now())
	if err != nil {
		return err
	}
	// The receiver retries its own hellos and ends on its own; here we
	// only end the run once the stream has started and then brought no
	// traffic for -idle.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		var last uint64
		var progress time.Time
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-tick.C:
				switch n := recv.Stats()[0].Datagrams; {
				case n > last:
					last, progress = n, now
				case n > 0 && now.Sub(progress) >= *idle:
					cancel()
					return
				}
			}
		}
	}()
	runErr := recv.Run(ctx)
	var rej *wire.RejectError
	switch {
	case runErr == nil, errors.Is(runErr, context.Canceled), errors.Is(runErr, context.DeadlineExceeded):
	case errors.As(runErr, &rej):
		return fmt.Errorf("server refused flow %d: %v (retry-after %v)", *flow, rej.Reason, rej.RetryAfter)
	case errors.Is(runErr, wire.ErrHelloTimeout):
		return fmt.Errorf("%s gave no stream: %w", *addr, runErr)
	default:
		return runErr
	}

	st := recv.Stats()[0]
	if st.Datagrams == 0 {
		return fmt.Errorf("no data received from %s (%d rejects, the last %v with retry-after %v)",
			*addr, st.Rejects, st.LastReject, st.LastRejectRetry)
	}
	fmt.Print(formatStats(st, recv.DecodeErrors()))

	if *maxGreenLoss >= 0 {
		if loss := st.Colors[packet.Green].LossRate(); loss > *maxGreenLoss {
			return fmt.Errorf("green loss %.4f exceeds -max-green-loss %.4f", loss, *maxGreenLoss)
		}
	}
	return nil
}

// formatStats renders the receiver counters, and the socket's
// undecodable datagrams, as stable key=value lines.
func formatStats(st wire.ReceiverStats, decodeErrors uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream datagrams=%d bytes=%d frames=%d epochs=%d goodput_bps=%.0f feedback_sent=%d decode_errors=%d\n",
		st.Datagrams, st.Bytes, st.Frames, st.Epochs,
		float64(st.Goodput()), st.FeedbackSent, decodeErrors)
	fmt.Fprintf(&b, "control hellos=%d rejects=%d closes=%d reconnects=%d last_close=%s\n",
		st.HellosSent, st.Rejects, st.Closes, st.Reconnects,
		strings.ToLower(st.LastClose.String()))
	colors := make([]packet.Color, 0, len(st.Colors))
	for c := range st.Colors {
		colors = append(colors, c)
	}
	sort.Slice(colors, func(i, j int) bool { return colors[i] < colors[j] })
	for _, c := range colors {
		cc := st.Colors[c]
		fmt.Fprintf(&b, "%s received=%d lost=%d loss=%.4f\n",
			strings.ToLower(c.String()), cc.Received, cc.Lost, cc.LossRate())
	}
	return b.String()
}
