package fgs

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/packet"
	"repro/internal/units"
)

// refSource is pels.Source's end-host loop as it was before Sender, without
// the transport: planFrame (with the controller's rate as an argument), the
// packet walk of emitNext and the control half of HandlePacket. In
// best-effort mode it planned with γ = 0 and never stepped γ.
type refSource struct {
	bestEffort bool
	ctrl       cc.Controller
	gamma      *Gamma
	packetizer *Packetizer
	scaler     Scaler
	interval   time.Duration
	share      RedShare

	frame      int
	plan       LayerPlan
	nextIdx    int
	lastRouter int
	haveRouter bool
}

func (s *refSource) planFrame(rate units.BitRate) {
	budget := s.scaler.Budget(s.frame, rate, s.interval)
	gamma := 0.0
	if !s.bestEffort {
		gamma = s.gamma.Value()
	}
	s.packetizer.PlanLadder(&s.plan, s.frame, budget, gamma, s.share)
	s.nextIdx = 0
	s.frame++
}

func (s *refSource) take() (frame, index int, color packet.Color) {
	index = s.nextIdx
	s.nextIdx++
	color = packet.LayerColor(s.plan.Layer(index))
	if s.bestEffort && color != packet.Green {
		color = packet.BestEffort
	}
	return s.plan.Frame, index, color
}

func (s *refSource) handle(fb packet.Feedback) bool {
	if !fb.Valid {
		return false
	}
	if !s.ctrl.OnFeedback(fb) {
		return false
	}
	if !s.bestEffort {
		if s.haveRouter && fb.RouterID != s.lastRouter {
			s.gamma.Reset()
		} else {
			s.gamma.Update(fb.Loss)
		}
	}
	s.lastRouter = fb.RouterID
	s.haveRouter = true
	return true
}

// refSession is session.Session's end-host loop as it was before Sender:
// pump's frame-boundary plan and packet walk, and the control half of
// handleFeedbackLocked.
type refSession struct {
	ctrl     cc.Controller
	gamma    *Gamma
	pk       *Packetizer
	scaler   Scaler
	interval time.Duration
	share    RedShare

	frame        int
	plan         LayerPlan
	planIdx      int
	lastRouterID int
	haveRouter   bool
}

func (s *refSession) planFrame(rate units.BitRate) int {
	budget := s.scaler.Budget(s.frame, rate, s.interval)
	s.pk.PlanLadder(&s.plan, s.frame, budget, s.gamma.Value(), s.share)
	s.planIdx = 0
	s.frame++
	return s.plan.Total()
}

func (s *refSession) take() (frame, index, layer int) {
	frame, index, layer = s.frame-1, s.planIdx, s.plan.Layer(s.planIdx)
	s.planIdx++
	return frame, index, layer
}

func (s *refSession) handle(fb packet.Feedback) (accepted, routerChanged bool) {
	if !fb.Valid {
		return false, false
	}
	if !s.ctrl.OnFeedback(fb) {
		return false, false
	}
	if s.haveRouter && fb.RouterID != s.lastRouterID {
		s.gamma.Reset()
		routerChanged = true
	} else {
		s.gamma.Update(fb.Loss)
	}
	s.lastRouterID = fb.RouterID
	s.haveRouter = true
	return true, routerChanged
}

// FuzzSender runs a script through a Sender and through the three reference
// loops (refSession, refSource in PELS mode, refSource in best-effort mode)
// side by side, each with its own controller and scaler. After every step
// the Sender must match refSession and the PELS refSource bit for bit: plan
// counts, (frame, index, layer), acceptance, router change, rate and γ. The
// best-effort refSource planned with γ = 0, so against it only the rate,
// acceptance and the colours on the wire (green base, best-effort above)
// must match: the first split point is the enhancement's own share, so
// base and total do not depend on γ. The script is read four bytes a step:
// an opcode and three arguments. Opcodes: plan a frame (at the Sender's rate when the 16-bit
// argument is 0, else at that many kb/s); take a packet; offer a label from
// router a&3 (invalid when a&4), epoch b and loss int8(c)/64, which covers
// repeated epochs, router changes and the negative loss of spare capacity.
func FuzzSender(f *testing.F) {
	f.Add(uint8(1), uint8(3), false, false, []byte{
		0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, // plan at the controller rate, take two
		2, 1, 1, 20, 2, 1, 1, 40, 2, 1, 2, 0xf0, // a label, its epoch repeated, a negative loss
		2, 2, 1, 30, 0, 4, 0, 0, 1, 0, 0, 0, // another router: γ resets; plan at 1 Mb/s
	})
	f.Add(uint8(6), uint8(8), true, true, []byte{
		0, 0, 200, 0, 2, 0, 1, 60, 2, 0, 1, 60, 2, 1, 1, 60, 2, 5, 9, 60,
		0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0x10, 0, 0,
	})
	f.Add(uint8(0), uint8(0), false, true, []byte{0, 0, 1, 0, 1, 0, 0, 0, 2, 3, 0, 0x80, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, layers, green uint8, enhShare, rd bool, script []byte) {
		spec := FrameSpec{PacketSize: 100, TotalPackets: 24, GreenPackets: int(green) % 25}
		cfg := SenderConfig{
			Frame:         spec,
			FrameInterval: 10 * time.Millisecond,
			Layers:        3 + int(layers)%(packet.MaxLayers-2),
		}
		if enhShare {
			cfg.RedShare = RedShareEnhancement
		}
		if rd {
			cfg.NewScaler = func() Scaler {
				return NewRDScaler(func(frame int) float64 { return float64(1 + (frame*7)%5) })
			}
		}
		cfg = cfg.WithDefaults()
		mkc := cfg.MKC(cc.MKCConfig{})
		newScaler := func() Scaler {
			if cfg.NewScaler == nil {
				return ConstantScaler{}
			}
			return cfg.NewScaler()
		}
		var s Sender
		if err := s.Init(cfg, cc.NewMKC(mkc)); err != nil {
			t.Fatal(err)
		}
		sess := refSession{ctrl: cc.NewMKC(mkc), gamma: MustNewGamma(cfg.Gamma), pk: MustNewPacketizer(spec),
			scaler: newScaler(), interval: cfg.FrameInterval, share: cfg.RedShare}
		sess.plan.Counts = make([]int, cfg.Layers)
		var src [2]refSource
		for i := range src {
			src[i] = refSource{bestEffort: i == 1, ctrl: cc.NewMKC(mkc), gamma: MustNewGamma(cfg.Gamma),
				packetizer: MustNewPacketizer(spec), scaler: newScaler(), interval: cfg.FrameInterval, share: cfg.RedShare}
			src[i].plan.Counts = make([]int, cfg.Layers)
		}
		pels, be := &src[0], &src[1]
		for i := 0; i+4 <= len(script); i += 4 {
			a, b, c := script[i+1], script[i+2], script[i+3]
			switch script[i] % 3 {
			case 0:
				rate := s.Rate()
				if arg := int(b)<<8 | int(c); arg > 0 {
					rate = units.BitRate(arg) * units.Kbps
				}
				n := s.PlanFrame(rate)
				if want := sess.planFrame(rate); n != want {
					t.Fatalf("step %d: planned %d packets, the session reference %d", i/4, n, want)
				}
				pels.planFrame(rate)
				be.planFrame(rate)
				got := s.plan.Counts
				if !slices.Equal(got, sess.plan.Counts) || !slices.Equal(got, pels.plan.Counts) {
					t.Fatalf("step %d: counts %v, the references %v and %v", i/4, got, sess.plan.Counts, pels.plan.Counts)
				}
				if got[0] != be.plan.Counts[0] || n != be.plan.Total() {
					t.Fatalf("step %d: counts %v, best-effort reference %v: base or total differ", i/4, got, be.plan.Counts)
				}
			case 1:
				if s.Pending() == 0 {
					if sess.planIdx < sess.plan.Total() {
						t.Fatalf("step %d: nothing pending, the reference has %d", i/4, sess.plan.Total()-sess.planIdx)
					}
					continue
				}
				if l, want := s.Layer(), sess.plan.Layer(sess.planIdx); l != want {
					t.Fatalf("step %d: next layer %d, the reference %d", i/4, l, want)
				}
				frame, index, layer := s.Take()
				wf, wi, wl := sess.take()
				if frame != wf || index != wi || layer != wl {
					t.Fatalf("step %d: took (%d, %d, %d), the session reference (%d, %d, %d)", i/4, frame, index, layer, wf, wi, wl)
				}
				if pf, pi, pc := pels.take(); pf != frame || pi != index || pc != packet.LayerColor(layer) {
					t.Fatalf("step %d: took (%d, %d, %v), the source reference (%d, %d, %v)",
						i/4, frame, index, packet.LayerColor(layer), pf, pi, pc)
				}
				want := packet.Green
				if layer > 0 {
					want = packet.BestEffort
				}
				if bf, bi, bc := be.take(); bf != frame || bi != index || bc != want {
					t.Fatalf("step %d: best-effort (%d, %d, %v), the reference (%d, %d, %v)", i/4, frame, index, want, bf, bi, bc)
				}
			case 2:
				fb := packet.Feedback{RouterID: int(a & 3), Epoch: uint64(b), Loss: float64(int8(c)) / 64, Valid: a&4 == 0}
				ok, changed := s.OnFeedback(fb)
				wok, wchanged := sess.handle(fb)
				if ok != wok || changed != wchanged {
					t.Fatalf("step %d: %+v accepted %v, router changed %v; the reference %v, %v", i/4, fb, ok, changed, wok, wchanged)
				}
				if pok, bok := pels.handle(fb), be.handle(fb); pok != ok || bok != ok {
					t.Fatalf("step %d: %+v accepted %v; the source references %v (pels), %v (best effort)", i/4, fb, ok, pok, bok)
				}
			}
			for _, r := range []units.BitRate{sess.ctrl.Rate(), pels.ctrl.Rate(), be.ctrl.Rate()} {
				if math.Float64bits(float64(s.Rate())) != math.Float64bits(float64(r)) {
					t.Fatalf("step %d: rate %v, a reference %v", i/4, s.Rate(), r)
				}
			}
			for _, g := range []float64{sess.gamma.Value(), pels.gamma.Value()} {
				if math.Float64bits(s.Gamma()) != math.Float64bits(g) {
					t.Fatalf("step %d: γ %v, a reference %v", i/4, s.Gamma(), g)
				}
			}
			if s.Frames() != sess.frame {
				t.Fatalf("step %d: %d frames planned, the reference %d", i/4, s.Frames(), sess.frame)
			}
		}
	})
}

// TestSenderPlanTakeZeroAllocs holds the per-frame and per-packet calls of
// both drivers to their //pelsvet:noalloc contract.
func TestSenderPlanTakeZeroAllocs(t *testing.T) {
	cfg := SenderConfig{FrameInterval: 500 * time.Millisecond, Layers: 8}.WithDefaults()
	var s Sender
	if err := s.Init(cfg, cc.NewMKC(cfg.MKC(cc.MKCConfig{}))); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for s.PlanFrame(units.Mbps); s.Pending() > 0; {
			s.Take()
		}
	})
	if allocs != 0 {
		t.Errorf("PlanFrame + Take: %v allocs a frame, want 0", allocs)
	}
}

// TestSenderConfig: defaults, validation, and the R_max ceiling both end
// hosts' configs take from here.
func TestSenderConfig(t *testing.T) {
	cfg := SenderConfig{FrameInterval: 20 * time.Millisecond}.WithDefaults()
	if cfg.Frame != DefaultFrameSpec() || cfg.Gamma != DefaultGammaConfig() || cfg.RedShare != RedShareTotal || cfg.Layers != 3 {
		t.Errorf("defaults = %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	for _, n := range []int{1, 2, packet.MaxLayers + 1} {
		bad := cfg
		bad.Layers = n
		if bad.Validate() == nil {
			t.Errorf("%d layers validated", n)
		}
	}
	m := cfg.MKC(cc.MKCConfig{})
	if want := cc.DefaultMKCConfig(); m.Alpha != want.Alpha || m.InitialRate != want.InitialRate {
		t.Errorf("MKC zero value not defaulted: %+v", m)
	}
	if rmax := cfg.Frame.MaxRate(cfg.FrameInterval); m.MaxRate != rmax {
		t.Errorf("MaxRate %v, want R_max %v", m.MaxRate, rmax)
	}
	if m := cfg.MKC(cc.MKCConfig{Beta: 0.5, InitialRate: units.Mbps, MaxRate: 2 * units.Mbps}); m.MaxRate != 2*units.Mbps {
		t.Errorf("a set MaxRate became %v", m.MaxRate)
	}
}
