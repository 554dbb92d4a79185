// Package video maps streaming outcomes to video quality. The paper
// evaluates PELS by reconstructing MPEG-4 FGS CIF Foreman offline from
// per-frame packet-loss statistics and plotting PSNR (Fig. 10). The actual
// bitstream and decoder are not reproducible from the paper, so this
// package substitutes a calibrated synthetic model (see DESIGN.md §4):
//
//   - a deterministic Foreman-like trace of per-frame base-layer PSNR and
//     scene complexity (the sequence's camera pan and scene change produce
//     the characteristic quality dips), and
//   - a logarithmic rate-distortion curve mapping decodable enhancement
//     bytes to PSNR gain, the standard shape for FGS bitplane coding
//     (each additional bitplane costs roughly twice the bits of the
//     previous one and adds a similar dB step).
//
// Only the comparative shape matters for the reproduction: best-effort
// streaming decodes a short useful prefix per frame (low gain, highly
// variable), while PELS decodes almost everything it receives (high gain,
// smooth).
package video

import (
	"math"
)

// RDModel is a logarithmic rate-distortion curve for one FGS stream:
// PSNR(b) = Base + MaxGain · ln(1 + Κ·b) / ln(1 + Κ·B_max) for b bytes of
// decodable enhancement data.
type RDModel struct {
	// MaxGain is the PSNR improvement (dB) at the full enhancement layer.
	MaxGain float64
	// Kappa shapes the curve's knee; larger values give more gain to the
	// first bytes (diminishing returns sooner).
	Kappa float64
	// MaxEnhBytes is B_max, the full enhancement-layer size per frame.
	MaxEnhBytes int
	// ConcealmentPSNR is the quality floor when the base layer of a frame
	// is lost and the decoder conceals from the previous frame.
	ConcealmentPSNR float64
}

// DefaultRDModel returns the model calibrated against the paper's reported
// numbers (Fig. 10: base ≈ 29 dB, PELS gain ≈ 55-60%, best-effort gain
// ≈ 16-24% at 10-19% loss) for the 52,500-byte Foreman enhancement layer:
// MaxGain reproduces PELS's +60% at its measured useful-byte level, and
// Kappa sets the diminishing-returns knee so the best-effort/PELS gain
// ratio matches the paper's (~0.4 at a 10× useful-byte gap).
func DefaultRDModel() RDModel {
	return RDModel{
		MaxGain:         26.0,
		Kappa:           1e-3,
		MaxEnhBytes:     52500,
		ConcealmentPSNR: 15.0,
	}
}

// Gain returns the PSNR improvement for b decodable enhancement bytes.
func (m RDModel) Gain(b int) float64 {
	if b <= 0 {
		return 0
	}
	if b > m.MaxEnhBytes {
		b = m.MaxEnhBytes
	}
	return m.MaxGain * math.Log(1+m.Kappa*float64(b)) / math.Log(1+m.Kappa*float64(m.MaxEnhBytes))
}
