// Package cc implements the end-host congestion controllers studied in the
// paper: Max-min Kelly Control (MKC, paper eq. 8) and an AIMD baseline used
// for comparison. Controllers are pure state machines driven by router
// feedback labels; pacing and packetization live in the source packages.
package cc

import (
	"repro/internal/packet"
	"repro/internal/units"
)

// Controller adjusts a sending rate in response to router feedback.
type Controller interface {
	// OnFeedback offers a feedback label to the controller. It returns
	// true if the label was fresh (new epoch) and the rate was updated.
	OnFeedback(fb packet.Feedback) bool
	// Rate returns the current sending rate.
	Rate() units.BitRate
	// LastLoss returns the loss value from the most recent accepted
	// feedback (0 before any feedback).
	LastLoss() float64
}

// The baselines' rate range (AIMD, Kelly, TFRC): MKC's default initial
// rate and floor, and no cap.
const (
	baselineInitialRate = 128 * units.Kbps
	baselineMinRate     = 16 * units.Kbps
)

// clampRate bounds r to [min, max]; max <= 0 means unbounded above.
func clampRate(r, min, max units.BitRate) units.BitRate {
	if r < min {
		return min
	}
	if max > 0 && r > max {
		return max
	}
	return r
}

// freshness tracks feedback epoch deduplication shared by controllers
// (paper §5.2): a source reacts to each router epoch exactly once. The
// last applied epoch is remembered per router ID, not only for the
// current bottleneck: when the bottleneck shifts between routers (or a
// fault plan flaps the route), a reordered or duplicated stale label
// from the previous router must not be laundered back into the
// controller by the intervening router change — it would rewind the MKC
// state to a congestion signal that is no longer true.
type freshness struct {
	// applied maps router ID → last applied epoch from that router.
	applied map[int]uint64
}

// epochResetSlack bounds how far back an epoch may jump before it is
// read as a router restart (epoch counter reset to zero) rather than a
// stale duplicate. Reordering keeps genuine duplicates within a handful
// of epochs of the newest one; a restarted router reappears thousands of
// epochs back.
const epochResetSlack = 64

// accept reports whether fb is fresh and records it if so.
func (f *freshness) accept(fb packet.Feedback) bool {
	if !fb.Valid {
		return false
	}
	if f.applied == nil {
		f.applied = make(map[int]uint64)
	}
	if last, ok := f.applied[fb.RouterID]; ok && fb.Epoch <= last && last-fb.Epoch <= epochResetSlack {
		return false // stale duplicate of an already-applied epoch
	}
	f.applied[fb.RouterID] = fb.Epoch
	return true
}
