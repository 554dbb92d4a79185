package video

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRDModelGainBounds(t *testing.T) {
	m := DefaultRDModel()
	if got := m.Gain(0); got != 0 {
		t.Errorf("Gain(0) = %v, want 0", got)
	}
	if got := m.Gain(-100); got != 0 {
		t.Errorf("Gain(-100) = %v, want 0", got)
	}
	if got := m.Gain(m.MaxEnhBytes); math.Abs(got-m.MaxGain) > 1e-9 {
		t.Errorf("Gain(full layer) = %v, want MaxGain %v", got, m.MaxGain)
	}
	if got := m.Gain(10 * m.MaxEnhBytes); math.Abs(got-m.MaxGain) > 1e-9 {
		t.Errorf("Gain beyond full layer = %v, want clamp at %v", got, m.MaxGain)
	}
}

func TestRDModelMonotoneConcave(t *testing.T) {
	m := DefaultRDModel()
	prev, prevDelta := 0.0, math.Inf(1)
	for b := 1000; b <= m.MaxEnhBytes; b += 1000 {
		g := m.Gain(b)
		if g < prev {
			t.Fatalf("gain not monotone at %d bytes", b)
		}
		delta := g - prev
		if delta > prevDelta+1e-9 {
			t.Fatalf("gain not concave at %d bytes (diminishing returns violated)", b)
		}
		prev, prevDelta = g, delta
	}
}

func TestForemanTraceDeterministic(t *testing.T) {
	a := ForemanTrace(300)
	b := ForemanTrace(300)
	if len(a.Frames) != 300 {
		t.Fatalf("len = %d", len(a.Frames))
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("trace not deterministic at frame %d", i)
		}
	}
}

func TestForemanTraceShape(t *testing.T) {
	tr := ForemanTrace(300)
	mean := 0.0
	for _, f := range tr.Frames {
		mean += f.BasePSNR / float64(len(tr.Frames))
	}
	if mean < 27 || mean < 0 || mean > 32 {
		t.Errorf("mean base PSNR = %.2f, want ~29", mean)
	}
	// The camera-pan dip (around 60-75% of the sequence) should be below
	// the talking-head average.
	var head, pan float64
	for i := 0; i < 150; i++ {
		head += tr.Frames[i].BasePSNR
	}
	head /= 150
	for i := 190; i < 215; i++ {
		pan += tr.Frames[i].BasePSNR
	}
	pan /= 25
	if pan >= head {
		t.Errorf("camera-pan PSNR %.2f not below talking-head %.2f", pan, head)
	}
	for i, f := range tr.Frames {
		if f.Complexity < 1 || f.Complexity > 2 {
			t.Errorf("frame %d complexity %v out of range [1,2]", i, f.Complexity)
		}
	}
}

func TestTraceFrameWrapsAround(t *testing.T) {
	tr := ForemanTrace(300)
	f := tr.Frame(305)
	if f.BasePSNR != tr.Frames[5].BasePSNR {
		t.Error("Frame(305) did not wrap to frame 5")
	}
	if f.Index != 305 {
		t.Errorf("wrapped frame index = %d, want 305", f.Index)
	}
}

func TestTraceEmptyFallback(t *testing.T) {
	tr := &Trace{}
	f := tr.Frame(3)
	if f.BasePSNR != 30 || f.Complexity != 1 {
		t.Errorf("empty trace fallback = %+v", f)
	}
}

func TestSequencePSNR(t *testing.T) {
	tr := constantTrace(3, 30)
	m := DefaultRDModel()
	useful := []int{0, m.MaxEnhBytes, 1000}
	complete := []bool{true, true, false}
	psnr := SequencePSNR(tr, m, useful, complete)
	if psnr[0] != 30 {
		t.Errorf("frame 0 = %v, want 30", psnr[0])
	}
	if math.Abs(psnr[1]-(30+m.MaxGain)) > 1e-9 {
		t.Errorf("frame 1 = %v, want %v", psnr[1], 30+m.MaxGain)
	}
	if psnr[2] != m.ConcealmentPSNR {
		t.Errorf("frame 2 = %v, want concealment", psnr[2])
	}
}

func TestSequencePSNRNilBaseComplete(t *testing.T) {
	tr := constantTrace(2, 30)
	m := DefaultRDModel()
	psnr := SequencePSNR(tr, m, []int{0, 0}, nil)
	for i, v := range psnr {
		if v != 30 {
			t.Errorf("frame %d = %v, want 30 (nil baseComplete means all complete)", i, v)
		}
	}
}

func TestSequencePSNRComplexityScalesGain(t *testing.T) {
	m := DefaultRDModel()
	tr := &Trace{Frames: []TraceFrame{
		{BasePSNR: 30, Complexity: 1},
		{BasePSNR: 30, Complexity: 2},
	}}
	psnr := SequencePSNR(tr, m, []int{10000, 10000}, nil)
	g1, g2 := psnr[0]-30, psnr[1]-30
	if math.Abs(g2-g1/2) > 1e-9 {
		t.Errorf("complexity-2 gain = %v, want half of %v (same bytes, harder frame)", g2, g1)
	}
}

func TestImprovementPercent(t *testing.T) {
	tr := constantTrace(4, 30)
	psnr := []float64{33, 33, 33, 33}
	if got := ImprovementPercent(tr, psnr); math.Abs(got-10) > 1e-9 {
		t.Errorf("improvement = %v%%, want 10%%", got)
	}
	if got := ImprovementPercent(tr, nil); got != 0 {
		t.Errorf("empty improvement = %v, want 0", got)
	}
}

// TestGainScalesWithMaxGainProperty: gain is proportional to MaxGain and
// bounded by it.
func TestGainScalesWithMaxGainProperty(t *testing.T) {
	f := func(bytesRaw uint16, gainRaw uint8) bool {
		m := DefaultRDModel()
		m.MaxGain = 1 + float64(gainRaw)/8
		b := int(bytesRaw) * 2
		g := m.Gain(b)
		if g < 0 || g > m.MaxGain+1e-9 {
			return false
		}
		m2 := m
		m2.MaxGain = m.MaxGain * 2
		return math.Abs(m2.Gain(b)-2*g) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRDModelPSNR: a frame's quality is its base PSNR plus the R-D gain of
// its decodable bytes, or the concealment floor when its base was lost.
func TestRDModelPSNR(t *testing.T) {
	m := DefaultRDModel()
	tr := constantTrace(3, 30)
	got := SequencePSNR(tr, m, []int{0, 50000, m.MaxEnhBytes}, []bool{true, false, true})
	if got[0] != 30 {
		t.Errorf("PSNR with no enhancement = %v, want base 30", got[0])
	}
	if got[1] != m.ConcealmentPSNR {
		t.Errorf("PSNR with lost base = %v, want concealment %v", got[1], m.ConcealmentPSNR)
	}
	if math.Abs(got[2]-(30+m.MaxGain)) > 1e-9 {
		t.Errorf("full enhancement PSNR = %v", got[2])
	}
}

// TestRDModelValidate: the calibrated default is a usable model: positive
// gain, knee and layer size, and the full layer earns exactly MaxGain.
func TestRDModelValidate(t *testing.T) {
	m := DefaultRDModel()
	if m.MaxGain <= 0 || m.Kappa <= 0 || m.MaxEnhBytes <= 0 {
		t.Fatalf("default model invalid: %+v", m)
	}
	if got := m.Gain(m.MaxEnhBytes); math.Abs(got-m.MaxGain) > 1e-9 {
		t.Errorf("full-layer gain = %v, want MaxGain %v", got, m.MaxGain)
	}
}

// TestConstantTrace: a trace of identical frames reads back the same base
// PSNR at every index, past its end included.
func TestConstantTrace(t *testing.T) {
	tr := constantTrace(10, 33)
	for i := 0; i < 25; i++ {
		if f := tr.Frame(i); f.BasePSNR != 33 || f.Index != i {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
}

// TestSequenceTraceCharacters: Foreman's static construction-site ending
// has better base quality and lower coding complexity than its camera pan,
// so the same delivered bytes enhance the ending more.
func TestSequenceTraceCharacters(t *testing.T) {
	tr := ForemanTrace(300)
	mean := func(from, to int, of func(TraceFrame) float64) float64 {
		sum := 0.0
		for i := from; i < to; i++ {
			sum += of(tr.Frames[i])
		}
		return sum / float64(to-from)
	}
	base := func(f TraceFrame) float64 { return f.BasePSNR }
	complexity := func(f TraceFrame) float64 { return f.Complexity }
	const panFrom, panTo, endFrom = 190, 215, 240
	if !(mean(endFrom, 300, base) > mean(panFrom, panTo, base)) {
		t.Error("base PSNR of the ending not above the pan")
	}
	if !(mean(endFrom, 300, complexity) < mean(panFrom, panTo, complexity)) {
		t.Error("complexity of the ending not below the pan")
	}
	useful := make([]int, 300)
	for i := range useful {
		useful[i] = 20000
	}
	psnr := SequencePSNR(tr, DefaultRDModel(), useful, nil)
	gain := func(from, to int) float64 {
		sum := 0.0
		for i := from; i < to; i++ {
			sum += psnr[i] - tr.Frames[i].BasePSNR
		}
		return sum / float64(to-from)
	}
	if !(gain(endFrom, 300) > gain(panFrom, panTo)) {
		t.Errorf("gain on the ending %.2f not above the pan %.2f", gain(endFrom, 300), gain(panFrom, panTo))
	}
}

// constantTrace returns an n-frame trace at a fixed base PSNR, isolating
// transport effects from content.
func constantTrace(n int, basePSNR float64) *Trace {
	frames := make([]TraceFrame, n)
	for i := range frames {
		frames[i] = TraceFrame{Index: i, BasePSNR: basePSNR, Complexity: 1}
	}
	return &Trace{Name: "constant", Frames: frames}
}
