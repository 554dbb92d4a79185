package pels

import (
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// teeOut copies every datagram a session writes, until off, before
// handing it on.
type teeOut struct {
	next wire.PacketWriter
	sent [][]byte
	off  bool
}

func (o *teeOut) WriteTo(b []byte, addr net.Addr) (int, error) {
	if !o.off {
		o.sent = append(o.sent, slices.Clone(b))
	}
	return o.next.WriteTo(b, addr)
}

// TestSourcePacketsAreWireDatagrams: every packet a Source emits is the
// datagram its session encoded, decoded — its size is the datagram's
// length, and its color, frame and index are the header's — for the
// paper's 3 layers, an 8-layer ladder and best-effort marking. Each color
// the config implies appears, and an emit allocates nothing once the
// packet pool is warm.
func TestSourcePacketsAreWireDatagrams(t *testing.T) {
	layers := func(n int) []packet.Color {
		var cs []packet.Color
		for l := 0; l < n; l++ {
			cs = append(cs, packet.LayerColor(l))
		}
		return cs
	}
	for _, tc := range []struct {
		name   string
		cfg    session.Config
		colors []packet.Color
	}{
		{"3-layer", session.Config{}, layers(3)},
		{"8-layer", session.Config{Layers: 8, RedShare: fgs.RedShareEnhancement}, layers(8)},
		{"best-effort", session.Config{BestEffort: true}, []packet.Color{packet.Green, packet.BestEffort}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			nw := netsim.NewNetwork(eng)
			nw.EnablePacketPool()
			h1, h2 := nw.NewHost("src"), nw.NewHost("dst")
			var got []packet.Packet
			tee := &teeOut{}
			h1.SetUplink(netsim.NewLink(eng, "l", 10*units.Mbps, 0, nil, receiverFunc(func(p *packet.Packet) {
				if !tee.off {
					got = append(got, *p)
				}
				nw.Pool().Put(p)
			})))
			// 800 kb/s paces a 500-byte packet every 5 ms and buys
			// every layer of a frame; no label ever changes it.
			tc.cfg.MKC = cc.DefaultMKCConfig()
			tc.cfg.MKC.InitialRate = 800 * units.Kbps
			src, err := NewSource(nw, h1, h2.ID(), Config{Flow: 9, Config: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			tee.next = (*netOut)(src)
			src.sess, err = session.NewSession(session.Key{Flow: 9}, nil, tee, src.cfg.Config, src.now())
			if err != nil {
				t.Fatal(err)
			}
			src.Start(0)
			// A millisecond past a send, the link has delivered it.
			if err := eng.RunUntil(3*time.Second + time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tee.sent) || len(got) < 500 {
				t.Fatalf("%d packets for %d datagrams, want equal and at least 500", len(got), len(tee.sent))
			}
			seen := map[packet.Color]bool{}
			for i, p := range got {
				h, _, err := wire.DecodeDatagram(tee.sent[i])
				if err != nil {
					t.Fatalf("datagram %d: %v", i, err)
				}
				if p.Size != len(tee.sent[i]) || p.Color != h.Color || p.Frame != int(h.Frame) || p.Index != int(h.Index) || p.FlowID != int(h.Flow) {
					t.Fatalf("packet %d is %v, datagram %d B %+v", i, &p, len(tee.sent[i]), h)
				}
				seen[p.Color] = true
			}
			for _, c := range tc.colors {
				if !seen[c] {
					t.Errorf("no %v packet", c)
				}
				delete(seen, c)
			}
			if len(seen) != 0 {
				t.Errorf("colors %v beyond %v", seen, tc.colors)
			}

			tee.off = true
			step := 5 * time.Millisecond
			if allocs := testing.AllocsPerRun(100, func() {
				if err := eng.RunUntil(eng.Now() + step); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("an emit allocates %.1f times, want 0", allocs)
			}
		})
	}
}
