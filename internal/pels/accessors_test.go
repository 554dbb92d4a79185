package pels

import (
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestSessionAccessorsAndByteAccounting(t *testing.T) {
	r := newRig(t, Config{Flow: 42}, 2*units.Mbps)
	r.src.Start(0)
	if err := r.eng.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.src.cfg.Flow != 42 {
		t.Errorf("flow = %d", r.src.cfg.Flow)
	}
	if r.src.BytesSent() != int64(r.src.sess.Stats().Datagrams)*500 {
		t.Errorf("BytesSent %d != packets %d × 500", r.src.BytesSent(), int64(r.src.sess.Stats().Datagrams))
	}
	if got := r.sink.Received().Datagrams; r.sink.BytesReceived() != int64(got)*500 {
		t.Errorf("BytesReceived %d != packets %d × 500", r.sink.BytesReceived(), got)
	}
	if r.sink.BytesReceived() > r.src.BytesSent() {
		t.Error("sink received more than source sent")
	}
	// The sink decodes with the configured frame: its base layer is
	// complete at exactly that many green packets.
	spec, complete := (Config{}).WithDefaults().Frame, 0
	for _, f := range r.sink.Frames() {
		if f.RecvBase > spec.GreenPackets || f.RecvBase+f.RecvEnh > spec.TotalPackets || f.BaseComplete != (f.RecvBase == spec.GreenPackets) {
			t.Fatalf("frame %+v does not fit the configured spec %+v", f, spec)
		}
		if f.BaseComplete {
			complete++
		}
	}
	if complete == 0 {
		t.Error("no frame decoded a complete base layer")
	}
}

func TestSessionConstructorErrors(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h1 := nw.NewHost("a")
	h2 := nw.NewHost("b")
	bad := Config{Flow: 1, Config: session.Config{Frame: fgs.FrameSpec{PacketSize: -1, TotalPackets: 1}}}
	if _, _, err := Session(nw, h1, h2, bad); err == nil {
		t.Error("Session accepted an invalid frame spec")
	}
	if _, err := NewSource(nw, h1, h2.ID(), bad); err == nil {
		t.Error("NewSource accepted an invalid frame spec")
	}
	if _, err := NewSink(nw, h2, bad); err == nil {
		t.Error("NewSink accepted an invalid frame spec")
	}
	badGamma := Config{Flow: 1, Config: session.Config{Gamma: fgs.GammaConfig{Sigma: 1, PThr: -1}}}
	if _, err := NewSource(nw, h1, h2.ID(), badGamma); err == nil {
		t.Error("NewSource accepted an invalid gamma config")
	}
}

func TestSinkIgnoresAckColoredData(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h := nw.NewHost("dst")
	r := nw.NewRouter("r")
	nw.Connect(h, r, netsim.LinkConfig{Rate: units.Mbps}, netsim.LinkConfig{Rate: units.Mbps})
	sink, err := NewSink(nw, h, Config{Flow: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink.HandlePacket(nw.NewPacket(1, h.ID(), 40, packet.ACK))
	if sink.Received().Datagrams != 0 {
		t.Error("sink counted an ACK as data")
	}
}

func TestSinkFeedbackUpdateRules(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h := nw.NewHost("dst")
	r := nw.NewRouter("r")
	nw.Connect(h, r, netsim.LinkConfig{Rate: units.Mbps}, netsim.LinkConfig{Rate: units.Mbps})
	sink, err := NewSink(nw, h, Config{Flow: 1})
	if err != nil {
		t.Fatal(err)
	}
	send := func(fb packet.Feedback) {
		p := nw.NewPacket(1, h.ID(), 500, packet.Yellow)
		p.Feedback = fb
		sink.HandlePacket(p)
	}
	// Invalid feedback never replaces anything.
	send(packet.Feedback{})
	if sink.Received().LastFeedback.Valid {
		t.Error("invalid feedback stored")
	}
	// The first valid label sticks, and a later invalid one keeps it.
	first := packet.Feedback{RouterID: 1, Epoch: 3, Loss: 0.1, Valid: true}
	send(first)
	send(packet.Feedback{})
	if got := sink.Received().LastFeedback; got != first {
		t.Errorf("latest label %+v, want %+v", got, first)
	}
	// Across routers the sink runs the receiver core's rule, which
	// wire.TestReceiverCoreLabelRule pins.
}

func TestSourceDoubleStartIgnored(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	r.src.Start(0)
	r.src.Start(0) // second start must be a no-op, not a double stream
	if err := r.eng.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// At R_max the source emits at most ~2 s / 3.97 ms ≈ 504 packets; a
	// doubled stream would blow past that.
	if sent := int64(r.src.sess.Stats().Datagrams); sent > 520 {
		t.Errorf("sent %d packets, double-start suspected", sent)
	}
}

func TestSourceStartAfterStopIgnored(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	r.src.Stop()
	r.src.Start(0)
	if err := r.eng.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if int64(r.src.sess.Stats().Datagrams) != 0 {
		t.Error("stopped source restarted")
	}
}

func TestSourceIgnoresForeignPackets(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	// A data-colored packet delivered to the source app is not feedback.
	p := r.nw.NewPacket(1, 0, 500, packet.Yellow)
	p.AckedFeedback = packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0.5, Valid: true}
	before := r.src.Rate()
	r.src.HandlePacket(p)
	if r.src.Rate() != before {
		t.Error("source reacted to a non-ACK packet")
	}
	// An ACK without valid feedback is also ignored.
	ack := r.nw.NewPacket(1, 0, 40, packet.ACK)
	r.src.HandlePacket(ack)
	if r.src.Rate() != before {
		t.Error("source reacted to an ACK without feedback")
	}
}

func TestSourceGammaResetOnRouterChange(t *testing.T) {
	r := newRig(t, Config{Flow: 1}, 2*units.Mbps)
	initial := r.src.Gamma()
	ack := func(router int, epoch uint64, loss float64) {
		p := r.nw.NewPacket(1, 0, 40, packet.ACK)
		p.AckedFeedback = packet.Feedback{RouterID: router, Epoch: epoch, Loss: loss, Valid: true}
		r.src.HandlePacket(p)
	}

	// Adapt γ upward against sustained loss from router 1.
	for e := uint64(1); e <= 10; e++ {
		ack(1, e, 0.7)
	}
	if r.src.Gamma() <= initial {
		t.Fatal("precondition: gamma did not adapt upward")
	}

	// Route change: feedback now comes from router 2 with a reset epoch
	// counter. γ restarts from Initial — the integrated loss history
	// belongs to a queue the flow no longer traverses.
	ack(2, 1, 0.7)
	if got := r.src.Gamma(); got != initial {
		t.Fatalf("gamma = %v after router change, want Initial %v", got, initial)
	}

	// And adapts normally against the new router afterwards.
	ack(2, 2, 0.7)
	if r.src.Gamma() <= initial {
		t.Fatal("gamma frozen after reset")
	}
}
