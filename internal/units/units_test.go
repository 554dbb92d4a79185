package units

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTransmissionTime(t *testing.T) {
	tests := []struct {
		name string
		rate BitRate
		size int
		want time.Duration
	}{
		{"500B at 4mb/s", 4 * Mbps, 500, time.Millisecond},
		{"1000B at 8kb/s", 8 * Kbps, 1000, time.Second},
		{"zero size", Mbps, 0, 0},
		{"negative size", Mbps, -5, 0},
		{"zero rate", 0, 100, 0},
		{"125B at 1kb/s", Kbps, 125, time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.rate.TransmissionTime(tt.size); got != tt.want {
				t.Errorf("TransmissionTime(%d) = %v, want %v", tt.size, got, tt.want)
			}
		})
	}
}

func TestBytesIn(t *testing.T) {
	if got := (2 * Mbps).BytesIn(500 * time.Millisecond); got != 125000 {
		t.Errorf("2mb/s over 500ms = %d bytes, want 125000", got)
	}
	if got := (Kbps).BytesIn(0); got != 0 {
		t.Errorf("BytesIn(0) = %d, want 0", got)
	}
	if got := BitRate(-1).BytesIn(time.Second); got != 0 {
		t.Errorf("negative rate BytesIn = %d, want 0", got)
	}
}

func TestRateFromBytes(t *testing.T) {
	if got := RateFromBytes(125000, 500*time.Millisecond); got != 2*Mbps {
		t.Errorf("RateFromBytes = %v, want 2mb/s", got)
	}
	if got := RateFromBytes(100, 0); got != 0 {
		t.Errorf("RateFromBytes with zero duration = %v, want 0", got)
	}
}

// TestRoundTripProperty: transmitting BytesIn(d) bytes at rate r takes ~d.
func TestRoundTripProperty(t *testing.T) {
	f := func(kbps uint16, ms uint16) bool {
		rate := BitRate(kbps+1) * Kbps
		d := time.Duration(ms+1) * time.Millisecond
		n := rate.BytesIn(d)
		back := rate.TransmissionTime(n)
		// One byte of quantization allowed.
		diff := math.Abs(float64(back - d))
		return diff <= float64(rate.TransmissionTime(1))+1
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConversions(t *testing.T) {
	r := BitRate(2.5e6)
	if r.KbpsValue() != 2500 {
		t.Errorf("KbpsValue = %v", r.KbpsValue())
	}
	if r.Bps() != 2.5e6 {
		t.Errorf("Bps = %v", r.Bps())
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		rate BitRate
		want string
	}{
		{4 * Mbps, "4.00 mb/s"},
		{128 * Kbps, "128.00 kb/s"},
		{2 * Gbps, "2.00 gb/s"},
		{500, "500 b/s"},
	}
	for _, tt := range tests {
		if got := tt.rate.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", float64(tt.rate), got, tt.want)
		}
	}
}

// TestParseBitRate covers the suffix forms the CLI flags accept and the
// rejection of malformed or non-positive rates.
func TestParseBitRate(t *testing.T) {
	ok := []struct {
		in   string
		want BitRate
	}{
		{"3mbps", 3 * Mbps},
		{"2.5Mbps", 2.5 * Mbps},
		{"500kbps", 500 * Kbps},
		{" 1 gbps ", Gbps},
		{"64000", 64000},
		{"750bps", 750},
		{"1.5mbit/s", 1.5 * Mbps},
		{"800kb/s", 800 * Kbps},
	}
	for _, c := range ok {
		got, err := ParseBitRate(c.in)
		if err != nil {
			t.Errorf("ParseBitRate(%q): %v", c.in, err)
			continue
		}
		if diff := float64(got - c.want); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("ParseBitRate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	bad := []struct {
		in   string
		why  string
		frag string // expected fragment of the error message
	}{
		{"", "empty input", "empty"},
		{"   ", "whitespace only", "empty"},
		{"fast", "no digits", "cannot parse"},
		{"mbps", "suffix without a number", "cannot parse"},
		{"3mbpsx", "garbage after suffix", "cannot parse"},
		{"3 m b p s", "garbage suffix", "cannot parse"},
		{"3kbps extra", "trailing junk", "cannot parse"},
		{"--3", "double sign", "cannot parse"},
		{"3..5mbps", "malformed mantissa", "cannot parse"},
		{"-3mbps", "negative rate", "must be positive"},
		{"-0", "negative zero", "must be positive"},
		{"0", "zero", "must be positive"},
		{"0kbps", "zero with suffix", "must be positive"},
		{"NaN", "not a number", "not a number"},
		{"nan bps", "NaN with suffix", "not a number"},
		{"+Inf", "infinity", "exceeds"},
		{"1e300mbps", "mantissa overflow", "exceeds"},
		{"1e400", "exponent overflow in ParseFloat", "cannot parse"},
		{"999999999999gbps", "unit multiplication overflow", "exceeds"},
		{"1000.001gbps", "just above MaxBitRate", "exceeds"},
	}
	for _, c := range bad {
		got, err := ParseBitRate(c.in)
		if err == nil {
			t.Errorf("ParseBitRate(%q) = %v, want error (%s)", c.in, got, c.why)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("ParseBitRate(%q) error %q, want it to contain %q (%s)", c.in, err, c.frag, c.why)
		}
	}

	// The cap itself is accepted exactly.
	if got, err := ParseBitRate("1000gbps"); err != nil || got != MaxBitRate {
		t.Errorf("ParseBitRate(1000gbps) = %v, %v; want MaxBitRate", got, err)
	}
}
