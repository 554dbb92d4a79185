package pels

import (
	"math"
	"testing"
	"time"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/units"
)

// rig is a minimal single-flow testbed: source host → PELS router →
// sink host, with the router computing MKC feedback over the bottleneck
// capacity.
type rig struct {
	eng      *sim.Engine
	nw       *netsim.Network
	src      *Source
	sink     *Sink
	feedback *aqm.Feedback
	bneck    *aqm.Bottleneck
}

func newRig(t *testing.T, cfg Config, capacity units.BitRate) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h1 := nw.NewHost("src")
	h2 := nw.NewHost("dst")
	r1 := nw.NewRouter("r1")
	r2 := nw.NewRouter("r2")

	fb := aqm.NewFeedback(eng, aqm.FeedbackConfig{
		RouterID: r1.ID(),
		Interval: 30 * time.Millisecond,
		Capacity: capacity,
	})
	bneck := aqm.NewBottleneck(aqm.DefaultBottleneckConfig())

	// No cross traffic in this rig, so the work-conserving WRR would give
	// PELS the whole link regardless of weight: size the link to exactly
	// the advertised PELS capacity so physical service matches feedback.
	access := netsim.LinkConfig{Rate: 10 * units.Mbps, Delay: time.Millisecond}
	nw.Connect(h1, r1, access, access)
	fwd, _ := nw.Connect(r1, r2,
		netsim.LinkConfig{Rate: capacity, Delay: 5 * time.Millisecond, Disc: bneck.Disc},
		netsim.LinkConfig{Rate: capacity, Delay: 5 * time.Millisecond})
	fwd.Proc = fb
	nw.Connect(r2, h2, access, access)
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	src, sink, err := Session(nw, h1, h2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, nw: nw, src: src, sink: sink, feedback: fb, bneck: bneck}
}

func TestSessionStreamsFrames(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	r.src.Start(0)
	if err := r.eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if int64(r.src.sess.Stats().Datagrams) == 0 {
		t.Fatal("source sent nothing")
	}
	st := r.sink.Stats()
	if st.Frames < 10 {
		t.Fatalf("decoded %d frames, want >= 10", st.Frames)
	}
	if st.BaseComplete != st.Frames {
		t.Errorf("base complete in %d/%d frames", st.BaseComplete, st.Frames)
	}
}

func TestSingleFlowConvergesToCapacity(t *testing.T) {
	// One flow, 2 mb/s PELS capacity, R_max only 1.008 mb/s: the rate must
	// peg at R_max (can't exceed the stream).
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	r.src.Start(0)
	if err := r.eng.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rmax := DefaultMaxRateKbps()
	got := r.src.Rate().KbpsValue()
	if math.Abs(got-rmax) > rmax*0.05 {
		t.Errorf("rate = %.1f kb/s, want ~R_max %.1f", got, rmax)
	}
}

// DefaultMaxRateKbps returns R_max of the default session in kb/s.
func DefaultMaxRateKbps() float64 {
	cfg := Config{}.WithDefaults()
	return cfg.Frame.MaxRate(cfg.FrameInterval).KbpsValue()
}

func TestConstrainedFlowTracksStationaryRate(t *testing.T) {
	// Capacity 500 kb/s < R_max: interior equilibrium r* = C + α/β.
	r := newRig(t, Config{Flow: 1}, 500*units.Kbps)
	r.src.Start(0)
	if err := r.eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	cfg := Config{}.WithDefaults()
	want := cfg.MKC.StationaryRate(500*units.Kbps, 1).KbpsValue()
	got := r.src.Rate().KbpsValue()
	if math.Abs(got-want) > want*0.1 {
		t.Errorf("rate = %.1f, want ~%.1f", got, want)
	}
	// Gamma should sit near p*/p_thr.
	pstar := cfg.MKC.StationaryLoss(500*units.Kbps, 1)
	wantGamma := pstar / cfg.Gamma.PThr
	if g := r.src.Gamma(); math.Abs(g-wantGamma) > 0.05 {
		t.Errorf("gamma = %.3f, want ~%.3f", g, wantGamma)
	}
}

func TestYellowAndGreenProtected(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 500*units.Kbps)
	r.src.Start(0)
	if err := r.eng.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	g := r.bneck.PELS.ColorCounters(packet.Green)
	y := r.bneck.PELS.ColorCounters(packet.Yellow)
	red := r.bneck.PELS.ColorCounters(packet.Red)
	if g.Dropped != 0 {
		t.Errorf("green drops = %d", g.Dropped)
	}
	if y.LossRate() > 0.02 {
		t.Errorf("yellow loss = %.4f, want ~0", y.LossRate())
	}
	if red.Dropped == 0 {
		t.Error("no red drops in a congested run — probes are not probing")
	}
	st := r.sink.Stats()
	if st.MeanUtility < 0.9 {
		t.Errorf("utility = %.3f, want > 0.9", st.MeanUtility)
	}
}

func TestBestEffortModeColorsEnhancementBestEffort(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h1 := nw.NewHost("src")
	h2 := nw.NewHost("dst")
	counts := map[packet.Color]int{}
	h1.SetUplink(netsim.NewLink(eng, "l", 10*units.Mbps, 0, nil, receiverFunc(func(p *packet.Packet) {
		counts[p.Color]++
	})))
	mkc := cc.DefaultMKCConfig()
	mkc.InitialRate = 600 * units.Kbps // above the base rate so enhancement is sent
	src, err := NewSource(nw, h1, h2.ID(), Config{Flow: 1, Config: session.Config{BestEffort: true, MKC: mkc}})
	if err != nil {
		t.Fatal(err)
	}
	src.Start(0)
	if err := eng.RunUntil(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if counts[packet.Yellow] != 0 || counts[packet.Red] != 0 {
		t.Errorf("best-effort mode emitted PELS colors: %v", counts)
	}
	if counts[packet.Green] == 0 || counts[packet.BestEffort] == 0 {
		t.Errorf("expected green + best-effort packets, got %v", counts)
	}
}

type receiverFunc func(p *packet.Packet)

func (f receiverFunc) Receive(p *packet.Packet) { f(p) }

func TestSourceStopHaltsEmission(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	r.src.Start(0)
	r.eng.At(r.eng.Now()+time.Second, r.src.Stop)
	if err := r.eng.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sent := int64(r.src.sess.Stats().Datagrams)
	if err := r.eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if int64(r.src.sess.Stats().Datagrams) != sent {
		t.Error("source kept sending after Stop")
	}
}

func TestSourceDelayedStart(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	r.src.Start(5 * time.Second)
	if err := r.eng.RunUntil(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	if int64(r.src.sess.Stats().Datagrams) != 0 {
		t.Error("source sent before its start time")
	}
	if err := r.eng.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if int64(r.src.sess.Stats().Datagrams) == 0 {
		t.Error("source did not start")
	}
}

func TestCustomControllerReplacesMKC(t *testing.T) {
	aimd := cc.NewAIMD()
	r := newRig(t, Config{Flow: 1, Config: session.Config{ControllerFactory: func() cc.Controller { return aimd }}}, 500*units.Kbps)
	r.src.Start(0)
	if err := r.eng.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The AIMD stepped on the labels, and its rate is the source's.
	if aimd.Rate() == 128*units.Kbps || r.src.Rate() != aimd.Rate() {
		t.Errorf("custom controller not used: source at %v, AIMD at %v", r.src.Rate(), aimd.Rate())
	}
	if int64(r.src.sess.Stats().Datagrams) == 0 {
		t.Error("no packets sent with AIMD controller")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Flow: -1},
		{Flow: 1, Config: session.Config{Frame: fgs.FrameSpec{PacketSize: -1, TotalPackets: 10}}},
		{Flow: 1, Config: session.Config{Gamma: fgs.GammaConfig{Sigma: 0.5, PThr: 2, Initial: 0.5, Clamp: true, Max: 1}}},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	if err := (Config{Flow: 1}).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestWithDefaultsDerivedBounds(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.MKC.MinRate != cfg.Frame.BaseRate(cfg.FrameInterval) {
		t.Errorf("MinRate = %v, want base rate %v", cfg.MKC.MinRate, cfg.Frame.BaseRate(cfg.FrameInterval))
	}
	if cfg.MKC.MaxRate != cfg.Frame.MaxRate(cfg.FrameInterval) {
		t.Errorf("MaxRate = %v, want R_max %v", cfg.MKC.MaxRate, cfg.Frame.MaxRate(cfg.FrameInterval))
	}
	if cfg.RedShare != fgs.RedShareTotal {
		t.Errorf("RedShare default = %v", cfg.RedShare)
	}
	if cfg.BestEffort || cfg.BurstBytes != cfg.Frame.PacketSize || cfg.FrameInterval != 500*time.Millisecond {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestSinkLatestFeedbackPrefersFreshEpoch(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h := nw.NewHost("dst")
	sinkRouter := nw.NewRouter("r")
	nw.Connect(h, sinkRouter, netsim.LinkConfig{Rate: units.Mbps}, netsim.LinkConfig{Rate: units.Mbps})
	sink, err := NewSink(nw, h, Config{Flow: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(epoch uint64, loss float64) *packet.Packet {
		p := nw.NewPacket(1, h.ID(), 500, packet.Yellow)
		p.Feedback = packet.Feedback{RouterID: 1, Epoch: epoch, Loss: loss, Valid: true}
		return p
	}
	sink.HandlePacket(mk(5, 0.1))
	sink.HandlePacket(mk(3, 0.9)) // reordered stale red packet
	if got := sink.Received().LastFeedback; got.Epoch != 5 {
		t.Errorf("latest epoch = %d, want 5 (stale label must not regress)", got.Epoch)
	}
	sink.HandlePacket(mk(6, 0.2))
	if got := sink.Received().LastFeedback; got.Epoch != 6 {
		t.Errorf("latest epoch = %d, want 6", got.Epoch)
	}
}
