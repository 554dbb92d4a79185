package session

import (
	"time"

	"repro/internal/timewheel"
)

// Wheel and Timer are the repository's one timing wheel
// (internal/timewheel) instantiated for sessions: every session embeds
// one Timer by value, and a fired timer's Owner is the session to pump.
type (
	Wheel = timewheel.Wheel[Session]
	Timer = timewheel.Timer[Session]
)

// NewWheel builds the pacing wheel; see timewheel.New.
func NewWheel(tick time.Duration, slots int, now time.Time) *Wheel {
	return timewheel.New[Session](tick, slots, now)
}
