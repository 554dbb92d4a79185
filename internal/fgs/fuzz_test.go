package fgs

import (
	"testing"
)

// FuzzDecoder throws arbitrary (frame, index) byte streams at the decoder
// and at the reference decoder, and checks that they agree and that the
// invariants hold: no panics, useful ≤ received, nothing useful without a
// complete base, counts bounded by the spec. Frame bytes ≥ 0xc0 map to
// negative frames and 0x80–0xbf to sparse frames k<<34, up to about 1<<40.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0})
	f.Add([]byte{})
	f.Add([]byte{255, 255, 9, 9, 9, 9})
	f.Add([]byte{0x80, 2, 0xbf, 3, 0xc0, 2, 7, 13, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		spec := FrameSpec{PacketSize: 100, TotalPackets: 12, GreenPackets: 3}
		d, ref := MustNewDecoder(spec), newRefDecoder(spec)
		touched := map[int]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			frame := int(data[i])
			switch {
			case frame >= 0xc0:
				frame = 0xbf - frame
			case frame >= 0x80:
				frame = (frame - 0x80) << 34
			}
			index := int(data[i+1]) - 2 // include out-of-range values
			d.Receive(frame, index)
			ref.Receive(frame, index)
			touched[frame] = true
		}
		checkAgainstRef(t, len(data)/2, d, ref, touched)
		for _, r := range d.Frames() {
			if r.UsefulEnh > r.RecvEnh {
				t.Fatalf("useful %d > received %d", r.UsefulEnh, r.RecvEnh)
			}
			if !r.BaseComplete && r.UsefulEnh != 0 {
				t.Fatalf("useful enhancement without complete base: %+v", r)
			}
			if r.RecvBase > spec.GreenPackets || r.RecvEnh > spec.EnhPackets() {
				t.Fatalf("counts exceed spec: %+v", r)
			}
			if r.MaxIndex >= spec.TotalPackets {
				t.Fatalf("max index %d out of range", r.MaxIndex)
			}
		}
	})
}

// FuzzPacketizer checks plan invariants for arbitrary budgets and gammas.
func FuzzPacketizer(f *testing.F) {
	f.Add(int64(63000), float64(0.2), true)
	f.Add(int64(-5), float64(2.5), false)
	f.Add(int64(1<<40), float64(-1), true)
	f.Fuzz(func(t *testing.T, budget int64, gamma float64, overTotal bool) {
		if budget > 1<<40 || budget < -(1<<40) {
			return
		}
		if gamma != gamma { // NaN gamma is meaningless input
			return
		}
		spec := DefaultFrameSpec()
		pk := MustNewPacketizer(spec)
		share := RedShareEnhancement
		if overTotal {
			share = RedShareTotal
		}
		plan := pk.PlanShare(0, int(budget), gamma, share)
		if plan.Green != spec.GreenPackets {
			t.Fatalf("green = %d", plan.Green)
		}
		if plan.Yellow < 0 || plan.Red < 0 {
			t.Fatalf("negative layer counts: %+v", plan)
		}
		if plan.Total() > spec.TotalPackets {
			t.Fatalf("plan exceeds frame: %+v", plan)
		}
		// The color layout must be exhaustive and ordered.
		for i := 0; i < plan.Total(); i++ {
			_ = plan.Color(i)
		}
	})
}

// FuzzGamma drives the controller with arbitrary loss sequences: the
// clamped controller must stay inside its bounds whatever the input.
func FuzzGamma(f *testing.F) {
	f.Add([]byte{10, 200, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := MustNewGamma(DefaultGammaConfig())
		for _, b := range data {
			p := float64(b)/128 - 0.5 // range [-0.5, 1.49]
			v := g.Update(p)
			if v < 0.05-1e-12 || v > 1+1e-12 {
				t.Fatalf("gamma %v escaped [0.05, 1]", v)
			}
		}
	})
}
