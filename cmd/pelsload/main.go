// Command pelsload drives a synthetic receiver swarm against a running
// pelsd and reports aggregate throughput, per-session convergence, and
// server shard saturation.
//
// Each synthetic receiver is a lightweight hello → streaming → feedback
// state machine (wire.Swarm): hellos retry until the first data
// datagram arrives, fresh gateway labels are echoed back as feedback,
// and per-color loss is tracked from sequence gaps. Receivers share a
// small pool of UDP sockets — goroutine count is sockets+1, not one per
// receiver — so one process can sustain thousands of concurrent
// sessions. Arrival times are seeded and spread over -ramp, so load is
// reproducible run to run.
//
// Usage:
//
//	pelsload [-addr 127.0.0.1:9000] [-sessions 1000] [-sockets 16]
//	         [-duration 15s] [-ramp 2s] [-seed 1] [-first-flow 1]
//	         [-hello-retry 500ms] [-scrape http://127.0.0.1:9100]
//	         [-shards-out shards.json] [-max-green-loss -1]
//	         [-min-streams 0] [-assert-isolation]
//	         [-reconnect] [-storm-at 0] [-storm-frac 0] [-storm-resume 2s]
//	         [-min-rejects 0] [-min-resumes 0]
//
// Overload drills: receivers honor the server's control plane — Reject
// retry-after hints stretch the hello backoff, and with -reconnect a
// retryable Close re-enters the hello loop as a fresh session. With
// -storm-frac F and -storm-at T, that fraction of receivers goes
// completely dark T after start (no reads, no feedback — as a mass
// client crash) and comes back -storm-resume later in one reconnect
// wave. -min-rejects and -min-resumes make the drill assertable: fail
// unless the server visibly refused that many hellos and that many
// stormed receivers resumed streaming.
//
// The steady-state window opens at half the run: per-session SteadyRate
// measures converged throughput after the ramp and MKC settling, and
// the report prints its min/p50/mean/max spread. The startup_ms line is
// the viewers' wait for a first picture: p50/p90/max, over the receivers
// that streamed, of first hello to first data datagram.
//
// With -scrape URL, pelsload fetches the server's /debug/vars and
// /debug/shards just before shutdown and prints per-shard session
// counts and summed rates (the shard-saturation view); -shards-out
// writes the raw shard JSON for artifact upload.
//
// Exit is non-zero when -max-green-loss >= 0 and any receiver's green
// loss rate exceeds it, when fewer than -min-streams receivers got any
// data, or when -assert-isolation finds cross-socket deliveries or
// sequence regressions (evidence of cross-session bleed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/packet"
	"repro/internal/stats"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pelsload:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:9000", "pelsd UDP address")
	sessions := flag.Int("sessions", 1000, "concurrent synthetic receivers")
	sockets := flag.Int("sockets", 16, "UDP sockets shared by the receivers")
	duration := flag.Duration("duration", 15*time.Second, "run length")
	ramp := flag.Duration("ramp", 2*time.Second, "arrival window for receiver start times")
	seed := flag.Int64("seed", 1, "arrival jitter seed")
	firstFlow := flag.Uint("first-flow", 1, "flow ID of the first receiver")
	helloRetry := flag.Duration("hello-retry", 500*time.Millisecond, "hello retry interval until first data")
	scrape := flag.String("scrape", "", "pelsd debug base URL to scrape /debug/vars and /debug/shards (empty = off)")
	shardsOut := flag.String("shards-out", "", "write the scraped /debug/shards JSON to this file")
	maxGreenLoss := flag.Float64("max-green-loss", -1, "fail if any receiver's green loss rate exceeds this (-1 = off)")
	minStreams := flag.Int("min-streams", 0, "fail if fewer receivers received any data")
	assertIsolation := flag.Bool("assert-isolation", false, "fail on any cross-socket delivery or sequence regression")
	reconnect := flag.Bool("reconnect", false, "re-hello after a retryable server Close instead of going dark")
	stormAt := flag.Duration("storm-at", 0, "when the disconnect storm fires (needs -storm-frac)")
	stormFrac := flag.Float64("storm-frac", 0, "fraction of receivers that go dark in the storm (0 = off)")
	stormResume := flag.Duration("storm-resume", 2*time.Second, "how long stormed receivers stay dark")
	minRejects := flag.Int("min-rejects", 0, "fail unless at least this many Rejects were observed")
	minResumes := flag.Int("min-resumes", 0, "fail unless at least this many receivers resumed streaming after a reset")
	flag.Parse()

	server, err := net.ResolveUDPAddr("udp", *addr)
	if err != nil {
		return err
	}
	now := time.Now()
	swarm, err := wire.NewSwarm(wire.SwarmConfig{
		Server:     server,
		Receivers:  *sessions,
		Sockets:    *sockets,
		FirstFlow:  uint32(*firstFlow),
		Seed:       *seed,
		Ramp:       *ramp,
		HelloRetry: *helloRetry,
		Reconnect:  *reconnect,
		Storm: wire.SwarmStorm{
			At:       *stormAt,
			Fraction: *stormFrac,
			Resume:   *stormResume,
		},
	}, now)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pelsload: %d receivers over %d sockets -> %s, ramp %v, duration %v\n",
		*sessions, swarm.Sockets(), server, *ramp, *duration)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- swarm.Run(runCtx) }()

	half := time.NewTimer(*duration / 2)
	defer half.Stop()
	end := time.NewTimer(*duration)
	defer end.Stop()
	var runErr error
	running := true
loop:
	for {
		select {
		case <-half.C:
			swarm.MarkSteady(time.Now())
		case <-end.C:
			break loop
		case <-ctx.Done():
			break loop
		case runErr = <-errCh: // every receiver ended, or a socket failed
			running = false
			break loop
		}
	}

	// Scrape the server while the sessions are still live, then stop.
	var shardJSON []byte
	if *scrape != "" {
		if vars, err := fetch(*scrape + "/debug/vars"); err == nil {
			printServerVars(vars)
		} else {
			fmt.Fprintf(os.Stderr, "pelsload: scrape vars: %v\n", err)
		}
		if sj, err := fetch(*scrape + "/debug/shards"); err == nil {
			shardJSON = sj
			printShardSummary(sj)
		} else {
			fmt.Fprintf(os.Stderr, "pelsload: scrape shards: %v\n", err)
		}
	}
	cancel()
	if running {
		runErr = <-errCh
	}
	if shardJSON != nil && *shardsOut != "" {
		if err := os.WriteFile(*shardsOut, shardJSON, 0o644); err != nil {
			return err
		}
	}

	if err := report(swarm.Stats(), *maxGreenLoss, *minStreams, *assertIsolation, *minRejects, *minResumes); err != nil {
		return err
	}
	if runErr != nil && !errors.Is(runErr, context.Canceled) {
		return runErr
	}
	return nil
}

// report prints the aggregate and convergence summary and applies the
// assertion flags.
func report(recvs []wire.SwarmReceiverStats, maxGreenLoss float64, minStreams int, assertIsolation bool, minRejects, minResumes int) error {
	var (
		streams, datagrams, bytes, hellos, feedback uint64
		regress, cross                              uint64
		rejects, closes, reconnects, resumes        uint64
		colors                                      = map[packet.Color]wire.ColorCount{}
		rates, startups                             []float64
		worstGreen                                  float64
		worstGreenFlow                              uint32
	)
	for _, st := range recvs {
		hellos += st.HellosSent
		feedback += st.FeedbackSent
		regress += st.SeqRegressions
		cross += st.CrossDeliveries
		rejects += st.Rejects
		closes += st.Closes
		reconnects += st.Reconnects
		resumes += st.Resumes
		if st.Datagrams == 0 {
			continue
		}
		streams++
		startups = append(startups, float64(st.Startup)/float64(time.Millisecond))
		datagrams += st.Datagrams
		bytes += st.Bytes
		for c, cc := range st.Colors {
			agg := colors[c]
			agg.Received += cc.Received
			agg.Bytes += cc.Bytes
			agg.Lost += cc.Lost
			colors[c] = agg
		}
		if g, ok := st.Colors[packet.Green]; ok {
			if lr := g.LossRate(); lr > worstGreen {
				worstGreen = lr
				worstGreenFlow = st.Flow
			}
		}
		if r := st.SteadyRate(); r > 0 {
			rates = append(rates, r.Bps())
		}
	}
	fmt.Printf("swarm receivers=%d streams=%d datagrams=%d bytes=%d hellos=%d feedback=%d\n",
		len(recvs), streams, datagrams, bytes, hellos, feedback)
	for _, c := range wire.ReportColors(colors) {
		cc := colors[c]
		fmt.Printf("%s received=%d lost=%d loss=%.4f\n", c, cc.Received, cc.Lost, cc.LossRate())
	}
	if len(rates) > 0 {
		sort.Float64s(rates)
		var sum float64
		for _, r := range rates {
			sum += r
		}
		fmt.Printf("steady_rate_bps n=%d min=%.0f p50=%.0f mean=%.0f max=%.0f aggregate=%.0f\n",
			len(rates), rates[0], rates[len(rates)/2], sum/float64(len(rates)), rates[len(rates)-1], sum)
	}
	if len(startups) > 0 {
		// Hello tick to first datagram, per receiver that streamed.
		fmt.Printf("startup_ms n=%d p50=%.3f p90=%.3f max=%.3f\n", len(startups),
			stats.Percentile(startups, 50), stats.Percentile(startups, 90), stats.Percentile(startups, 100))
	}
	fmt.Printf("isolation seq_regressions=%d cross_deliveries=%d\n", regress, cross)
	fmt.Printf("control rejects=%d closes=%d reconnects=%d resumes=%d\n",
		rejects, closes, reconnects, resumes)

	if maxGreenLoss >= 0 && worstGreen > maxGreenLoss {
		return fmt.Errorf("green loss %.4f on flow %d exceeds limit %.4f", worstGreen, worstGreenFlow, maxGreenLoss)
	}
	if streams < uint64(minStreams) {
		return fmt.Errorf("only %d of %d receivers streamed (minimum %d)", streams, len(recvs), minStreams)
	}
	if assertIsolation && (regress > 0 || cross > 0) {
		return fmt.Errorf("isolation violated: %d sequence regressions, %d cross-socket deliveries", regress, cross)
	}
	if rejects < uint64(minRejects) {
		return fmt.Errorf("only %d Rejects observed (minimum %d): the server never pushed back", rejects, minRejects)
	}
	if resumes < uint64(minResumes) {
		return fmt.Errorf("only %d receivers resumed after reset (minimum %d)", resumes, minResumes)
	}
	return nil
}

// fetch GETs url with a short timeout.
func fetch(url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
