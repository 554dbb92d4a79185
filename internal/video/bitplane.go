package video

import (
	"math"
)

// BitplaneModel is an alternative quality model that follows MPEG-4 FGS
// coding structure more literally than the logarithmic RDModel: the
// enhancement layer consists of bitplanes of the DCT residual, each
// roughly doubling the bit budget of the previous one and contributing a
// comparable PSNR step (~6 dB per fully decoded bitplane in the ideal
// transform-coding model; real FGS nets less). Decoding stops at the first
// missing byte, so a partially received bitplane contributes a pro-rated
// share of its step.
//
// The experiments use it as a robustness check: the Fig. 10 comparison's
// shape must not depend on which quality model maps bytes to dB.
type BitplaneModel struct {
	// Planes is the number of enhancement bitplanes (MPEG-4 FGS streams
	// typically carry 5-7).
	Planes int
	// FirstPlaneBytes is the size of the most significant bitplane; each
	// subsequent plane is Growth times larger.
	FirstPlaneBytes int
	Growth          float64
	// StepDB is the PSNR contribution of each fully decoded bitplane.
	StepDB float64
	// ConcealmentPSNR as in RDModel.
	ConcealmentPSNR float64
}

// DefaultBitplaneModel returns a model sized to the paper's 52,500-byte
// Foreman enhancement layer: 6 planes growing ×1.6 from 2,000 bytes
// (total ≈ 52.6 kB), 4.3 dB per plane (≈ 26 dB at full rate, matching the
// calibrated RDModel's MaxGain).
//
//pelsvet:allow deadexport test substitute: TestFigure10RobustToQualityModel swaps this model in for RDModel
func DefaultBitplaneModel() BitplaneModel {
	return BitplaneModel{
		Planes:          6,
		FirstPlaneBytes: 2000,
		Growth:          1.6,
		StepDB:          26.0 / 6,
		ConcealmentPSNR: 15.0,
	}
}

// PlaneBytes returns the size of bitplane i (0 = most significant).
func (m BitplaneModel) PlaneBytes(i int) int {
	return int(float64(m.FirstPlaneBytes) * math.Pow(m.Growth, float64(i)))
}

// Gain returns the PSNR improvement for b consecutively decodable
// enhancement bytes: full steps for complete bitplanes plus a pro-rated
// share of the first incomplete one.
//
//pelsvet:allow deadexport test substitute: TestFigure10RobustToQualityModel swaps this model in for RDModel
func (m BitplaneModel) Gain(b int) float64 {
	if b <= 0 {
		return 0
	}
	gain := 0.0
	for i := 0; i < m.Planes; i++ {
		size := m.PlaneBytes(i)
		if b >= size {
			gain += m.StepDB
			b -= size
			continue
		}
		gain += m.StepDB * float64(b) / float64(size)
		break
	}
	return gain
}
