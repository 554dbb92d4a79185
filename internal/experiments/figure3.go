package experiments

import (
	"fmt"
	"math/rand"
	"strings"
)

// Figure3Result reproduces the illustration of paper Fig. 3: the drop
// pattern inside one FGS frame under random (best-effort) loss versus the
// ideal preferential pattern, and the useful prefix each leaves behind.
type Figure3Result struct {
	H             int
	Loss          float64
	RandomDrops   []bool // index i true = packet i dropped (Bernoulli)
	IdealDrops    []bool // ideal: same drop count, all at the frame tail
	RandomUseful  int
	IdealUseful   int
	RandomDropped int
}

// Figure3 draws one frame's drop pattern at the given loss.
func Figure3(h int, loss float64, seed int64) Figure3Result {
	rng := rand.New(rand.NewSource(seed))
	res := Figure3Result{
		H:           h,
		Loss:        loss,
		RandomDrops: make([]bool, h),
		IdealDrops:  make([]bool, h),
	}
	for i := range res.RandomDrops {
		if rng.Float64() < loss {
			res.RandomDrops[i] = true
			res.RandomDropped++
		}
	}
	for i := h - res.RandomDropped; i < h; i++ {
		res.IdealDrops[i] = true
	}
	for i := 0; i < h && !res.RandomDrops[i]; i++ {
		res.RandomUseful++
	}
	res.IdealUseful = h - res.RandomDropped
	return res
}

// FormatFigure3 renders the two drop patterns as strings of '#' (received)
// and '.' (dropped), mirroring the shaded frames of the paper's figure.
func FormatFigure3(r Figure3Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "H=%d, p=%g, %d packets dropped\n", r.H, r.Loss, r.RandomDropped)
	b.WriteString("random: ")
	writePattern(&b, r.RandomDrops)
	fmt.Fprintf(&b, "  useful=%d\n", r.RandomUseful)
	b.WriteString("ideal:  ")
	writePattern(&b, r.IdealDrops)
	fmt.Fprintf(&b, "  useful=%d\n", r.IdealUseful)
	return b.String()
}

func writePattern(b *strings.Builder, drops []bool) {
	for _, d := range drops {
		if d {
			b.WriteByte('.')
		} else {
			b.WriteByte('#')
		}
	}
}

func figure3At(g geometry) (Result, error) {
	r := Figure3(100, 0.1, g.seed)
	return Result{Output: FormatFigure3(r), Metrics: map[string]float64{
		"random_useful": float64(r.RandomUseful),
		"ideal_useful":  float64(r.IdealUseful),
		"dropped":       float64(r.RandomDropped),
	}}, nil
}
