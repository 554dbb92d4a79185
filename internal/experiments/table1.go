package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/analysis"
)

// Table1Row is one row of paper Table 1: the expected number of useful
// packets per frame under Bernoulli loss, Monte-Carlo simulation vs the
// closed-form model of eq. (2).
type Table1Row struct {
	H          int
	Loss       float64
	Simulation float64
	Model      float64
	// Received is the mean number of packets delivered per frame (the
	// paper quotes it in the text: 99 received vs 62 useful at p=0.01).
	Received float64
}

// Table1Config parameterizes the Table 1 reproduction.
type Table1Config struct {
	H      int
	Losses []float64
	Frames int
	Seed   int64
}

// DefaultTable1Config mirrors the paper (H=100, p ∈ {1e-4, 0.01, 0.1}).
func DefaultTable1Config() Table1Config {
	return Table1Config{
		H:      100,
		Losses: []float64{0.0001, 0.01, 0.1},
		Frames: 200000,
		Seed:   1,
	}
}

// Table1 regenerates paper Table 1.
func Table1(cfg Table1Config) []Table1Row {
	rng := rand.New(rand.NewSource(cfg.Seed))
	rows := make([]Table1Row, 0, len(cfg.Losses))
	for _, p := range cfg.Losses {
		rows = append(rows, Table1Row{
			H:          cfg.H,
			Loss:       p,
			Simulation: analysis.MonteCarloUseful(p, cfg.H, cfg.Frames, rng),
			Model:      analysis.ExpectedUsefulFixedH(p, cfg.H),
			Received:   analysis.MonteCarloReceived(p, cfg.H, cfg.Frames/10, rng),
		})
	}
	return rows
}

// FormatTable1 renders the rows like the paper's table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-12s %-12s %-12s %-12s\n", "H", "loss p", "simulations", "model (2)", "received")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5d %-12g %-12.2f %-12.2f %-12.2f\n", r.H, r.Loss, r.Simulation, r.Model, r.Received)
	}
	return b.String()
}

func table1At(g geometry) (Result, error) {
	cfg := DefaultTable1Config()
	cfg.Seed = g.seed
	rows := Table1(cfg)
	m := make(map[string]float64)
	for _, r := range rows {
		p := fmt.Sprintf("_p%g", r.Loss)
		m["useful_sim"+p], m["useful_model"+p], m["received"+p] = r.Simulation, r.Model, r.Received
	}
	return Result{Output: FormatTable1(rows), Metrics: m}, nil
}
