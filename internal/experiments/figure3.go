package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
)

// figure3At reproduces the illustration of paper Fig. 3: the drop pattern
// inside one FGS frame of H = 100 under random (best-effort) loss at
// p = 0.1 versus the ideal preferential pattern, which drops as many
// packets, all at the frame's tail, and the useful prefix each leaves
// behind. Both print as strings of '#' (received) and '.' (dropped),
// mirroring the shaded frames of the paper's figure.
func figure3At(g geometry) (Result, error) {
	const h, loss = 100, 0.1
	rng := rand.New(rand.NewSource(g.seed))
	random := bytes.Repeat([]byte{'#'}, h)
	dropped := 0
	for i := range random {
		if rng.Float64() < loss {
			random[i] = '.'
			dropped++
		}
	}
	useful := bytes.IndexByte(random, '.')
	if useful < 0 {
		useful = h
	}
	m := map[string]float64{
		"random_useful": float64(useful),
		"ideal_useful":  float64(h - dropped),
		"dropped":       float64(dropped),
	}
	ideal := strings.Repeat("#", h-dropped) + strings.Repeat(".", dropped)
	out := fmt.Sprintf("H=%d, p=%g, %.0f packets dropped\nrandom: %s  useful=%.0f\nideal:  %s  useful=%.0f\n",
		h, loss, m["dropped"], random, m["random_useful"], ideal, m["ideal_useful"])
	return Result{Output: out, Metrics: m}, nil
}
