package experiments

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/pels"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestReceiversAgree feeds one scripted sequence of data datagrams to a
// Sink on a netsim host, as packets, and to a one-receiver wire.Swarm over
// the emulator, as datagrams, and requires the two receivers to count the
// same: per-color deliveries, bytes and loss, sequence regressions, fresh
// labels and the latest label. The script has sequence gaps, a late
// arrival that repays a loss, a duplicate with no loss to repay, a stale
// epoch and a gateway swap to a router reporting less loss.
func TestReceiversAgree(t *testing.T) {
	const flow = 9
	r1 := func(epoch uint64, loss float64) packet.Feedback {
		return packet.Feedback{RouterID: 1, Epoch: epoch, Loss: loss, Valid: true}
	}
	// Router 2 reports less loss: max-min would keep router 1's label.
	swap := packet.Feedback{RouterID: 2, Epoch: 1, Loss: 0.05, Valid: true}
	script := []wire.Header{
		{Color: packet.Green, Seq: 0, Frame: 0, Feedback: r1(1, 0.2)},
		{Color: packet.Green, Seq: 1, Frame: 0, Feedback: r1(1, 0.2)},
		{Color: packet.Yellow, Seq: 0, Frame: 0, Feedback: r1(2, 0.3)},
		{Color: packet.Red, Seq: 0, Frame: 0},
		{Color: packet.Green, Seq: 4, Frame: 1, Feedback: r1(2, 0.3)},  // 2 and 3 lost
		{Color: packet.Green, Seq: 2, Frame: 0, Feedback: r1(3, 0.1)},  // late: repays one
		{Color: packet.Red, Seq: 3, Frame: 1, Feedback: r1(1, 0.9)},    // stale epoch; 1 and 2 lost
		{Color: packet.Yellow, Seq: 0, Frame: 1, Feedback: r1(3, 0.1)}, // duplicate, nothing to repay
		{Color: packet.Yellow, Seq: 1, Frame: 1, Feedback: swap},       // the gateway swap
		{Color: packet.Red, Seq: 4, Frame: 2, Feedback: r1(4, 0.4)},    // back to router 1
		{Color: packet.Green, Seq: 5, Frame: 2, Feedback: r1(4, 0.4)},
	}
	datagrams := make([][]byte, len(script))
	for i := range script {
		script[i].Type, script[i].Flow, script[i].Index = wire.TypeData, flow, uint16(i)
		b, err := wire.EncodeDatagram(script[i], make([]byte, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		datagrams[i] = b
	}

	// The simulator's receiver.
	eng := sim.NewEngine(1)
	nw := netsim.NewNetwork(eng)
	h := nw.NewHost("dst")
	nw.Connect(h, nw.NewRouter("r"), netsim.LinkConfig{Rate: units.Mbps}, netsim.LinkConfig{Rate: units.Mbps})
	sink, err := pels.NewSink(nw, h, pels.Config{Flow: flow})
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range script {
		p := nw.NewPacket(flow, h.ID(), len(datagrams[i]), sh.Color)
		p.Frame, p.Index, p.Seq, p.Feedback = int(sh.Frame), int(sh.Index), int64(sh.Seq), sh.Feedback
		sink.HandlePacket(p)
	}
	simSt := sink.Received()

	// The live receiver: a swarm of one reading the emulator's far end.
	emu := wire.NewEmulator(wire.EmulatorConfig{})
	defer emu.Close()
	sw, err := wire.NewSwarm(wire.SwarmConfig{Server: emu.A().LocalAddr(), Receivers: 1, FirstFlow: flow,
		Listen: func() (net.PacketConn, error) { return emu.B(), nil }}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- sw.Run(ctx) }()
	for _, b := range datagrams {
		if _, err := emu.A().WriteTo(b, emu.B().LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); sw.Stats()[0].Datagrams < uint64(len(script)); {
		if time.Now().After(deadline) {
			t.Fatalf("the swarm took %d of %d datagrams", sw.Stats()[0].Datagrams, len(script))
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	live := sw.Stats()[0]

	if !reflect.DeepEqual(simSt.Colors, live.Colors) {
		t.Errorf("per-color counts: sink %+v, swarm %+v", simSt.Colors, live.Colors)
	}
	if simSt.Datagrams != live.Datagrams || simSt.Bytes != live.Bytes || simSt.Frames != live.Frames {
		t.Errorf("datagrams/bytes/frames: sink %d/%d/%d, swarm %d/%d/%d",
			simSt.Datagrams, simSt.Bytes, simSt.Frames, live.Datagrams, live.Bytes, live.Frames)
	}
	if simSt.SeqRegressions != live.SeqRegressions || simSt.Epochs != live.Epochs || simSt.LastFeedback != live.LastFeedback {
		t.Errorf("regressions/epochs/label: sink %d/%d/%+v, swarm %d/%d/%+v",
			simSt.SeqRegressions, simSt.Epochs, simSt.LastFeedback, live.SeqRegressions, live.Epochs, live.LastFeedback)
	}
	// The script's own arithmetic, so agreement on a wrong count fails.
	want := map[packet.Color]wire.ColorCount{
		packet.Green:  {Received: 5, Lost: 1},
		packet.Yellow: {Received: 3},
		packet.Red:    {Received: 3, Lost: 2},
	}
	for c, w := range want {
		if got := simSt.Colors[c]; got.Received != w.Received || got.Lost != w.Lost {
			t.Errorf("%v: received %d lost %d, want %d and %d", c, got.Received, got.Lost, w.Received, w.Lost)
		}
	}
	if simSt.SeqRegressions != 1 || simSt.Epochs != 5 || simSt.LastFeedback != r1(4, 0.4) {
		t.Errorf("regressions %d, epochs %d, label %+v; want 1, 5 and %+v", simSt.SeqRegressions, simSt.Epochs, simSt.LastFeedback, r1(4, 0.4))
	}
}
