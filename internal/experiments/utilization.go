package experiments

import (
	"fmt"
	"strings"
	"time"
)

// UtilizationResult backs the paper's §1 goal of "high useful link
// utilization": the fraction of video bytes crossing the bottleneck that
// the decoders can actually use. Under best-effort random loss, the link
// spends most of its video budget on enhancement bytes that arrive intact
// but are undecodable behind a gap; PELS converts nearly every transmitted
// yellow/green byte into decodable video, wasting only the red probes it
// deliberately sacrifices.
type UtilizationResult struct {
	Scheme string
	// TransmittedBytes is video traffic serialized on the bottleneck;
	// DeliveredBytes what reached the receivers; UsefulBytes what the
	// decoders could use (complete base layers + useful prefixes).
	TransmittedBytes int64
	DeliveredBytes   int64
	UsefulBytes      int64
	// UsefulUtilization = UsefulBytes / TransmittedBytes.
	UsefulUtilization float64
	// DeliveredUtilization = DeliveredBytes / TransmittedBytes.
	DeliveredUtilization float64
	// Events is the number of simulator events the run processed.
	Events uint64
}

// UtilizationConfig parameterizes the comparison.
type UtilizationConfig struct {
	NumFlows int
	Duration time.Duration
	Seed     int64
}

// DefaultUtilizationConfig uses the ~7% loss operating point.
func DefaultUtilizationConfig() UtilizationConfig {
	return UtilizationConfig{NumFlows: 4, Duration: 90 * time.Second, Seed: 1}
}

// Utilization measures useful link utilization for PELS and best-effort.
func Utilization(cfg UtilizationConfig) ([]UtilizationResult, error) {
	out := make([]UtilizationResult, 2)
	err := fanOut(len(out), func(i int) error {
		bestEffort := i == 1
		tcfg := DefaultTestbedConfig()
		tcfg.Seed = cfg.Seed
		tcfg.NumPELS = cfg.NumFlows
		tcfg.BestEffort = bestEffort
		tb, err := runTestbed(tcfg, cfg.Duration)
		if err != nil {
			return fmt.Errorf("experiments: utilization: %w", err)
		}
		res := UtilizationResult{Scheme: "pels", Events: tb.Eng.Processed()}
		if bestEffort {
			res.Scheme = "best-effort"
		}
		res.TransmittedBytes = tb.VideoBytesTransmitted
		spec := tcfg.Session.WithDefaults().Frame
		for _, sink := range tb.Sinks {
			res.DeliveredBytes += sink.BytesReceived()
			for _, f := range sink.Frames() {
				if f.BaseComplete {
					res.UsefulBytes += int64(spec.BaseBytes())
				}
				res.UsefulBytes += int64(f.UsefulBytes(spec.PacketSize))
			}
		}
		if res.TransmittedBytes > 0 {
			res.UsefulUtilization = float64(res.UsefulBytes) / float64(res.TransmittedBytes)
			res.DeliveredUtilization = float64(res.DeliveredBytes) / float64(res.TransmittedBytes)
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatUtilization renders the comparison.
func FormatUtilization(rows []UtilizationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-14s %-14s %-14s %-10s %-10s\n",
		"scheme", "transmitted", "delivered", "useful", "deliv/tx", "useful/tx")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14d %-14d %-14d %-10.3f %-10.3f\n",
			r.Scheme, r.TransmittedBytes, r.DeliveredBytes, r.UsefulBytes,
			r.DeliveredUtilization, r.UsefulUtilization)
	}
	return b.String()
}
