package repro_test

// One benchmark per table and figure of the paper's evaluation (§6). Each
// bench runs the corresponding experiment driver end to end and reports the
// headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation and doubles as a performance harness
// for the simulator itself.
//
// Benchmarks that vary the seed per iteration report their metrics from the
// FIRST iteration (seed 1), never the last: the last iteration's seed is
// b.N, which changes with -benchtime, and a reported figure should not
// change with it.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
)

// BenchmarkTable1 regenerates Table 1: expected useful packets per frame,
// Monte-Carlo simulation vs the closed form of eq. (2).
func BenchmarkTable1(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultTable1Config()
	cfg.Frames = 20000
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = Table1Rows(cfg)
	}
	for _, r := range rows {
		b.ReportMetric(r.Simulation, "useful_sim_p"+metricName(r.Loss))
		b.ReportMetric(r.Model, "useful_model_p"+metricName(r.Loss))
	}
}

// Table1Rows is a tiny indirection so the compiler cannot hoist the work
// out of the benchmark loop.
func Table1Rows(cfg experiments.Table1Config) []experiments.Table1Row {
	return experiments.Table1(cfg)
}

// metricName renders a loss probability for use in a metric name. It
// formats the actual value (shortest round-trippable form), so two rows
// with different losses can never collide into one metric — the old
// threshold-bucket version reported p=0.02 and p=0.04 under the same name,
// silently dropping one of them.
func metricName(p float64) string {
	return fmt.Sprintf("%g", p)
}

// BenchmarkFigure2 regenerates Fig. 2: useful packets and utility vs H.
func BenchmarkFigure2(b *testing.B) {
	cfg := experiments.DefaultFigure2Config()
	var rows []experiments.Figure2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Figure2(cfg)
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.BestEffortUseful, "be_useful_H1000")
	b.ReportMetric(last.BestEffortUtility, "be_utility_H1000")
	b.ReportMetric(last.OptimalUseful, "opt_useful_H1000")
}

// BenchmarkFigure3 regenerates Fig. 3: random vs ideal drop patterns.
func BenchmarkFigure3(b *testing.B) {
	var res experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(100, 0.1, int64(i+1))
		if i == 0 {
			res = r
		}
	}
	b.ReportMetric(float64(res.RandomUseful), "random_useful")
	b.ReportMetric(float64(res.IdealUseful), "ideal_useful")
}

// BenchmarkFigure5 regenerates Fig. 5: γ controller trajectories for the
// stable (σ=0.5) and unstable (σ=3) gains.
func BenchmarkFigure5(b *testing.B) {
	cfg := experiments.DefaultFigure5Config()
	var res experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		res = experiments.Figure5(cfg)
	}
	b.ReportMetric(res.Stable[len(res.Stable)-1], "gamma_stable_final")
	b.ReportMetric(res.FixedPoint, "gamma_fixed_point")
}

// BenchmarkFigure7 regenerates Fig. 7: γ evolution and red-loss convergence
// at the paper's ~7% and ~14% loss levels (full-stack simulation).
func BenchmarkFigure7(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultFigure7Config()
	cfg.Duration = 60 * time.Second
	var runs []experiments.Figure7Run
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Figure7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			runs = r
		}
	}
	for _, r := range runs {
		suffix := "_n4"
		if r.NumFlows == 8 {
			suffix = "_n8"
		}
		b.ReportMetric(r.MeasuredLoss, "loss"+suffix)
		b.ReportMetric(r.GammaTail, "gamma"+suffix)
		b.ReportMetric(r.RedLossTail, "redloss"+suffix)
	}
}

// BenchmarkFigure8 regenerates Fig. 8 and Fig. 9 (left): per-color
// queueing delays under the staircase workload.
func BenchmarkFigure8(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultFigure8Config()
	cfg.Steps = 3
	var res *experiments.Figure8Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res = r
		}
	}
	b.ReportMetric(res.GreenMean, "green_delay_ms")
	b.ReportMetric(res.YellowMean, "yellow_delay_ms")
	b.ReportMetric(res.RedMean, "red_delay_ms")
}

// BenchmarkFigure9 regenerates Fig. 9 (right): MKC convergence and
// fairness after F2 joins.
func BenchmarkFigure9(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultFigure9Config()
	var res *experiments.Figure9Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Figure9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res = r
		}
	}
	b.ReportMetric(res.F1Peak, "f1_peak_kbps")
	b.ReportMetric(res.F1Tail, "f1_tail_kbps")
	b.ReportMetric(res.F2Tail, "f2_tail_kbps")
	b.ReportMetric((res.ConvergedAt - res.JoinAt).Seconds(), "fairness_after_join_s")
}

// BenchmarkFigure10 regenerates Fig. 10: PSNR of the reconstructed Foreman
// sequence, PELS vs best-effort at ~10% and ~19% loss.
func BenchmarkFigure10(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultFigure10Config()
	cfg.Duration = 90 * time.Second
	cfg.EvalFrames = 120
	var runs []experiments.Figure10Run
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Figure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			runs = r
		}
	}
	for i, r := range runs {
		suffix := "_10pct"
		if i == 1 {
			suffix = "_19pct"
		}
		b.ReportMetric(r.PELSImprove, "pels_gain_pct"+suffix)
		b.ReportMetric(r.BEImprove, "be_gain_pct"+suffix)
		b.ReportMetric(r.PELSUtility, "pels_utility"+suffix)
		b.ReportMetric(r.BEUtility, "be_utility"+suffix)
	}
}

// BenchmarkAblations runs the design-choice ablation suite (DESIGN.md §6).
func BenchmarkAblations(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultAblationConfig()
	cfg.Duration = 45 * time.Second
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Ablations(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rows = r
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanUtility, "utility_"+r.Name)
	}
}

// BenchmarkMultiBottleneck exercises the §5.2 multi-router feedback: the
// source follows a bottleneck shift from R2 to R1.
func BenchmarkMultiBottleneck(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultMultiBottleneckConfig()
	var res *experiments.MultiBottleneckResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.MultiBottleneck(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res = r
		}
	}
	b.ReportMetric(res.RateBefore, "rate_before_kbps")
	b.ReportMetric(res.RateAfter, "rate_after_kbps")
}

// BenchmarkRDScaling runs the §6.5 quality-smoothing extension: R-D-aware
// frame budgets vs the paper's constant scaling.
func BenchmarkRDScaling(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultRDScalingConfig()
	cfg.Duration = 90 * time.Second
	var res *experiments.RDScalingResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.RDScaling(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res = r
		}
	}
	b.ReportMetric(res.ConstantStdDev, "psnr_stddev_constant")
	b.ReportMetric(res.RDStdDev, "psnr_stddev_rdaware")
}

// BenchmarkControllers runs the §5 congestion-control-independence sweep
// (MKC, Kelly, AIMD, TFRC, IIAD, SQRT under identical load).
func BenchmarkControllers(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultControllersConfig()
	cfg.Duration = 45 * time.Second
	var rows []experiments.ControllerResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Controllers(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rows = r
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanUtility, "utility_"+r.Name)
	}
}

// BenchmarkRTTFairness runs the Lemma 6 heterogeneous-delay experiment.
func BenchmarkRTTFairness(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultRTTFairnessConfig()
	cfg.Duration = 45 * time.Second
	var res *experiments.RTTFairnessResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.RTTFairness(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res = r
		}
	}
	b.ReportMetric(res.JainIndex, "jain_index")
}

// BenchmarkIsolation runs the §6.1 WRR isolation sweeps.
func BenchmarkIsolation(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultIsolationConfig()
	cfg.Duration = 30 * time.Second
	var res *experiments.IsolationResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Isolation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			res = r
		}
	}
	last := res.PELSSweep[len(res.PELSSweep)-1]
	b.ReportMetric(last.TCPGoodput, "tcp_goodput_kbps_at_max_pels_load")
}

// BenchmarkUtilization runs the §1 useful-link-utilization comparison.
func BenchmarkUtilization(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	cfg := experiments.DefaultUtilizationConfig()
	cfg.Duration = 45 * time.Second
	var rows []experiments.UtilizationResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.Utilization(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rows = r
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.UsefulUtilization, "useful_util_"+r.Scheme)
	}
}

// BenchmarkSimulatorThroughput measures raw simulator performance: events
// per second pushing the paper's default scenario through the engine.
func BenchmarkSimulatorThroughput(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping full experiment benchmark in -short mode")
	}
	var firstRun float64
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultTestbedConfig()
		cfg.Seed = int64(i + 1)
		tb, err := experiments.NewTestbed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.Run(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			firstRun = float64(tb.Eng.Processed())
		}
	}
	b.ReportMetric(firstRun, "events/run")
}
