package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/units"
)

// IsolationResult backs the paper's §6.1 claim that "the PELS and Internet
// queues do not affect each other in any way": sweeping the number of PELS
// flows must leave TCP goodput pinned at the Internet WRR share, and
// sweeping TCP flows must leave the PELS aggregate pinned at its share.
type IsolationResult struct {
	// Rows of the PELS-load sweep: TCP goodput as video flows increase.
	PELSSweep []IsolationRow
	// Rows of the TCP-load sweep: PELS aggregate as TCP flows increase.
	TCPSweep []IsolationRow
	// InternetShare and PELSShare are the WRR allocations (kb/s).
	InternetShare, PELSShare float64
	// Events is the number of simulator events processed across both
	// sweeps.
	Events uint64
}

// IsolationRow is one sweep point.
type IsolationRow struct {
	PELSFlows, TCPFlows int
	// TCPGoodput is aggregate TCP delivery; PELSThroughput the aggregate
	// video arrival rate at the bottleneck (both kb/s).
	TCPGoodput, PELSThroughput float64
}

// IsolationConfig parameterizes the sweeps.
type IsolationConfig struct {
	PELSCounts []int
	TCPCounts  []int
	Duration   time.Duration
	Seed       int64
}

// DefaultIsolationConfig sweeps both dimensions across the paper's scale.
func DefaultIsolationConfig() IsolationConfig {
	return IsolationConfig{
		PELSCounts: []int{1, 2, 4, 8},
		TCPCounts:  []int{1, 2, 4, 8},
		Duration:   60 * time.Second,
		Seed:       1,
	}
}

// Isolation runs both sweeps.
func Isolation(cfg IsolationConfig) (*IsolationResult, error) {
	base := DefaultTestbedConfig()
	res := &IsolationResult{
		PELSShare:     base.PELSCapacity().KbpsValue(),
		InternetShare: float64(base.BottleneckRate)/1000 - base.PELSCapacity().KbpsValue(),
	}
	// Both sweeps are one index space: the PELS-load points, then the
	// TCP-load points, each with the other side held at 2 flows.
	type point struct {
		sweep          string
		n, nPELS, nTCP int
	}
	var points []point
	for _, n := range cfg.PELSCounts {
		points = append(points, point{"PELS", n, n, 2})
	}
	for _, n := range cfg.TCPCounts {
		points = append(points, point{"TCP", n, 2, n})
	}
	rows := make([]IsolationRow, len(points))
	events := make([]uint64, len(points))
	err := fanOut(len(points), func(i int) error {
		pt := points[i]
		tcfg := DefaultTestbedConfig()
		tcfg.Seed = cfg.Seed
		tcfg.NumPELS = pt.nPELS
		tcfg.NumTCP = pt.nTCP
		tb, err := runTestbed(tcfg, cfg.Duration)
		if err != nil {
			return fmt.Errorf("experiments: isolation %s sweep (n=%d): %w", pt.sweep, pt.n, err)
		}
		row := IsolationRow{PELSFlows: pt.nPELS, TCPFlows: pt.nTCP}
		var tcpBytes int64
		for _, r := range tb.TCPReceivers {
			tcpBytes += r.BytesDelivered()
		}
		row.TCPGoodput = units.RateFromBytes(tcpBytes, cfg.Duration).KbpsValue()
		// PELS throughput measured over the second half via the router's
		// rate series (arrivals at the bottleneck).
		row.PELSThroughput = tb.FeedbackRate.MeanAfter(cfg.Duration / 2)
		rows[i], events[i] = row, tb.Eng.Processed()
		return nil
	})
	if err != nil {
		return nil, err
	}
	k := len(cfg.PELSCounts)
	res.PELSSweep, res.TCPSweep = rows[:k:k], rows[k:]
	for _, n := range events {
		res.Events += n
	}
	return res, nil
}

// FormatIsolation renders both sweeps.
func FormatIsolation(r *IsolationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "WRR shares: PELS %.0f kb/s, Internet %.0f kb/s\n", r.PELSShare, r.InternetShare)
	fmt.Fprintf(&b, "PELS-load sweep (TCP goodput must hold at its share):\n")
	for _, row := range r.PELSSweep {
		fmt.Fprintf(&b, "  %d PELS flows: tcp=%.0f kb/s  pels=%.0f kb/s\n",
			row.PELSFlows, row.TCPGoodput, row.PELSThroughput)
	}
	fmt.Fprintf(&b, "TCP-load sweep (PELS throughput must hold at its share):\n")
	for _, row := range r.TCPSweep {
		fmt.Fprintf(&b, "  %d TCP flows:  tcp=%.0f kb/s  pels=%.0f kb/s\n",
			row.TCPFlows, row.TCPGoodput, row.PELSThroughput)
	}
	return b.String()
}
