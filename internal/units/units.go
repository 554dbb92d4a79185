// Package units provides typed helpers for bit rates and data sizes used
// throughout the simulator. Rates are stored as bits per second in a
// float64, which keeps arithmetic with the paper's closed forms (eq. 8-12)
// simple while still carrying intent in the type system.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// BitRate is a data rate in bits per second.
type BitRate float64

// Common rates.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1000 * BitPerSecond
	Mbps                 = 1000 * Kbps
	Gbps                 = 1000 * Mbps

	// MaxBitRate bounds parsed rates at one petabit per second: far above
	// any link this simulator models, low enough that downstream
	// arithmetic (bytes per interval, transmission times) cannot
	// overflow.
	MaxBitRate = 1000 * Gbps
)

// Bps returns the rate as a plain float64 in bits per second.
func (r BitRate) Bps() float64 { return float64(r) }

// KbpsValue returns the rate in kilobits per second.
func (r BitRate) KbpsValue() float64 { return float64(r) / 1000 }

// TransmissionTime returns the time needed to serialize sizeBytes at rate r.
// It returns 0 for non-positive rates or sizes.
func (r BitRate) TransmissionTime(sizeBytes int) time.Duration {
	if r <= 0 || sizeBytes <= 0 {
		return 0
	}
	seconds := float64(sizeBytes) * 8 / float64(r)
	return time.Duration(seconds * float64(time.Second))
}

// BytesIn returns how many whole bytes can be transmitted at rate r during
// interval d.
func (r BitRate) BytesIn(d time.Duration) int {
	if r <= 0 || d <= 0 {
		return 0
	}
	return int(float64(r) * d.Seconds() / 8)
}

// String renders the rate with an adaptive unit, e.g. "4.0 mb/s".
func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2f gb/s", float64(r)/1e9)
	case r >= Mbps:
		return fmt.Sprintf("%.2f mb/s", float64(r)/1e6)
	case r >= Kbps:
		return fmt.Sprintf("%.2f kb/s", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.0f b/s", float64(r))
	}
}

// ParseBitRate parses a human-friendly rate such as "3mbps", "500kbps",
// "2.5Mbps", or a bare number of bits per second ("64000"). Unit
// suffixes are case-insensitive and accept the bps/bit forms kbps, mbps,
// gbps, and bps. The rate must be a number (not nan/inf), strictly
// positive, and at most MaxBitRate; anything else — including garbage
// suffixes, exponent overflow, and negative values — is rejected with an
// error naming the original input.
func ParseBitRate(s string) (BitRate, error) {
	orig := s
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return 0, fmt.Errorf("units: empty bit rate")
	}
	unit := BitPerSecond
	for _, u := range []struct {
		suffix string
		rate   BitRate
	}{
		{"kbps", Kbps}, {"kbit/s", Kbps}, {"kb/s", Kbps},
		{"mbps", Mbps}, {"mbit/s", Mbps}, {"mb/s", Mbps},
		{"gbps", Gbps}, {"gbit/s", Gbps}, {"gb/s", Gbps},
		{"bps", BitPerSecond}, {"bit/s", BitPerSecond}, {"b/s", BitPerSecond},
	} {
		if strings.HasSuffix(s, u.suffix) {
			s, unit = strings.TrimSpace(strings.TrimSuffix(s, u.suffix)), u.rate
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("units: cannot parse bit rate %q", orig)
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("units: bit rate %q is not a number", orig)
	}
	if v <= 0 {
		return 0, fmt.Errorf("units: bit rate %q must be positive", orig)
	}
	r := BitRate(v * float64(unit))
	if math.IsInf(float64(r), 0) || r > MaxBitRate {
		return 0, fmt.Errorf("units: bit rate %q exceeds %v", orig, MaxBitRate)
	}
	return r, nil
}

// RateFromBytes returns the average rate of sizeBytes transferred over d.
func RateFromBytes(sizeBytes int64, d time.Duration) BitRate {
	if d <= 0 {
		return 0
	}
	return BitRate(float64(sizeBytes) * 8 / d.Seconds())
}
