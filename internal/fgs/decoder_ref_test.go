package fgs

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refDecoder is the decoder as it was before storage was paged: one map
// entry, one heap frame state and one []bool per frame. It is kept beside
// the paged Decoder as the reference the differential tests step against.
type refDecoder struct {
	spec   FrameSpec
	frames map[int]*refFrame
}

type refFrame struct {
	received []bool
	count    int
	maxIndex int
}

func newRefDecoder(spec FrameSpec) *refDecoder {
	return &refDecoder{spec: spec, frames: make(map[int]*refFrame)}
}

func (d *refDecoder) Receive(frame, index int) {
	if index < 0 || index >= d.spec.TotalPackets || frame < 0 {
		return
	}
	st := d.frames[frame]
	if st == nil {
		st = &refFrame{received: make([]bool, d.spec.TotalPackets), maxIndex: -1}
		d.frames[frame] = st
	}
	if st.received[index] {
		return
	}
	st.received[index] = true
	st.count++
	if index > st.maxIndex {
		st.maxIndex = index
	}
}

func (d *refDecoder) Frame(frame int) FrameResult {
	st := d.frames[frame]
	res := FrameResult{Frame: frame, MaxIndex: -1}
	if st == nil {
		return res
	}
	res.MaxIndex = st.maxIndex
	g := d.spec.GreenPackets
	res.BaseComplete = true
	for i := 0; i < g; i++ {
		if st.received[i] {
			res.RecvBase++
		} else {
			res.BaseComplete = false
		}
	}
	for i := g; i < d.spec.TotalPackets; i++ {
		if st.received[i] {
			res.RecvEnh++
		}
	}
	if res.BaseComplete {
		for i := g; i < d.spec.TotalPackets && st.received[i]; i++ {
			res.UsefulEnh++
		}
	}
	return res
}

func (d *refDecoder) Frames() []FrameResult {
	nums := make([]int, 0, len(d.frames))
	for f := range d.frames {
		nums = append(nums, f)
	}
	sort.Ints(nums)
	out := make([]FrameResult, 0, len(nums))
	for _, f := range nums {
		out = append(out, d.Frame(f))
	}
	return out
}

// checkAgainstRef compares every touched frame and the full frame list.
func checkAgainstRef(t *testing.T, step int, d *Decoder, ref *refDecoder, touched map[int]bool) {
	t.Helper()
	for f := range touched {
		if got, want := d.Frame(f), ref.Frame(f); got != want {
			t.Fatalf("step %d: Frame(%d) = %+v, reference %+v", step, f, got, want)
		}
	}
	if got, want := d.Frames(), ref.Frames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: Frames() = %+v,\nreference %+v", step, got, want)
	}
}

// TestDecoderMatchesReference steps the paged decoder and the reference
// through one seeded script per frame spec: frames arriving in order as
// bursts from index 0 (with or without a hole) and as single packets,
// interleaved neighbours, duplicates, out-of-range indices, negative
// frames, and sparse frame numbers up to 1<<40. After every step each
// frame touched so far and Frames() must agree.
func TestDecoderMatchesReference(t *testing.T) {
	specs := []FrameSpec{
		DefaultFrameSpec(),
		smallSpec(),
		{PacketSize: 100, TotalPackets: 64, GreenPackets: 64},  // all base, one full word
		{PacketSize: 100, TotalPackets: 130, GreenPackets: 0},  // no base, three words
		{PacketSize: 100, TotalPackets: 200, GreenPackets: 70}, // base spills into word 1
	}
	for _, spec := range specs {
		rng := rand.New(rand.NewSource(int64(26 + spec.TotalPackets)))
		d, ref := MustNewDecoder(spec), newRefDecoder(spec)
		touched := map[int]bool{}
		cur, lastFrame, lastIndex := 0, 0, 0
		for step := 0; step < 1000; step++ {
			frame := cur
			index := rng.Intn(spec.TotalPackets)
			burst, hole := 1, -1
			switch k := rng.Intn(20); {
			case k < 5: // the current frame, one packet anywhere
			case k < 8: // the current frame's first packets in order
				index, burst = 0, 1+rng.Intn(spec.TotalPackets)
				if rng.Intn(2) == 0 {
					hole = rng.Intn(burst)
				}
			case k < 10: // an interleaved neighbour
				frame = max(0, cur+rng.Intn(5)-2)
			case k < 12: // a duplicate of the last packet
				frame, index = lastFrame, lastIndex
			case k < 13: // out of range on either side
				index = []int{-1, -64, spec.TotalPackets, spec.TotalPackets + 63}[rng.Intn(4)]
			case k < 14: // negative frame
				frame = -1 - rng.Intn(1<<20)
			case k < 16: // sparse and huge
				frame = rng.Intn(1 << 40)
			case k < 17: // the very last slots of a page and the first of the next
				frame = (rng.Intn(1<<10)+1)*pageFrames - 1 + rng.Intn(2)
			default: // move on to the next frame
				cur++
				frame = cur
			}
			for i := index; i < index+burst; i++ {
				if i != hole {
					d.Receive(frame, i)
					ref.Receive(frame, i)
				}
			}
			lastFrame, lastIndex = frame, index+burst-1
			touched[frame] = true
			checkAgainstRef(t, step, d, ref, touched)
		}
	}
}

// TestDecoderReceiveSeenFrameAllocsNothing: a packet into a frame that
// already has one — the common case — allocates nothing, whether it hits
// the cached page or goes through the map.
func TestDecoderReceiveSeenFrameAllocsNothing(t *testing.T) {
	d := MustNewDecoder(DefaultFrameSpec())
	d.Receive(0, 0)
	d.Receive(1<<40, 0)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		d.Receive(0, i%126)
		d.Receive(1<<40, i%126)
		i++
	}); n != 0 {
		t.Errorf("Receive into a seen frame: %v allocs, want 0", n)
	}
}

// TestDecoderBytesPerFrame bounds what a stream of consecutive frames
// allocates, garbage included: at most 64 B a frame, against about 240 B
// for the reference's map entry, heap state and []bool.
func TestDecoderBytesPerFrame(t *testing.T) {
	spec := DefaultFrameSpec()
	for _, frames := range []int{1000, 10000, 100000} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := MustNewDecoder(spec)
		for f := 0; f < frames; f++ {
			for i := 0; i < spec.TotalPackets; i += 3 {
				d.Receive(f, i)
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		perFrame := float64(after.TotalAlloc-before.TotalAlloc) / float64(frames)
		t.Logf("%d frames: %.1f B allocated per frame", frames, perFrame)
		if perFrame > 64 {
			t.Errorf("%d frames: %.1f B allocated per frame, want ≤ 64", frames, perFrame)
		}
	}
}
