package session

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/units"
)

// TestAdmitWaveSettles scripts the admitted counter against instants: a
// wave settles once, collectQuiet after the counter last moved, and not
// again until it moves again — including a wave that was already over
// when the driver first looked.
func TestAdmitWaveSettles(t *testing.T) {
	t0 := time.Unix(5000, 0)
	q := collectQuiet
	steps := []struct {
		at       time.Duration
		admitted uint64
		want     bool
	}{
		{0, 0, false}, // nothing admitted: nothing to settle
		{5 * q, 0, false},
		{5*q + 1, 3, false},   // a wave starts
		{5*q + q/2, 7, false}, // and goes on
		{6 * q, 7, false},     // silent for half of collectQuiet
		{6*q + q/2 - 1, 7, false},
		{6*q + q/2, 7, true}, // silent for collectQuiet: settled, once
		{6*q + q/2 + 1, 7, false},
		{20 * q, 7, false},
		{20*q + 1, 8, false}, // one more session is a wave
		{21 * q, 8, false},
		{21*q + 1, 8, true},
		{40 * q, 8, false},
	}
	var w admitWave
	for i, st := range steps {
		if got := w.settled(st.admitted, t0.Add(st.at)); got != st.want {
			t.Fatalf("step %d (admitted %d at +%v): settled = %v, want %v", i, st.admitted, st.at, got, st.want)
		}
	}

	var late admitWave // the driver's first look finds sessions already admitted
	if late.settled(5, t0) || late.settled(5, t0.Add(q-1)) || !late.settled(5, t0.Add(q)) || late.settled(5, t0.Add(2*q)) {
		t.Fatal("a wave that ended before the first look must settle once, collectQuiet after that look")
	}
}

// TestLiveCollectsAfterAdmission runs a real server: some time after its one
// session is admitted the process has been through a forced collection, so
// the driver's request reaches a collector that acts on it.
func TestLiveCollectsAfterAdmission(t *testing.T) {
	forced := func() uint32 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.NumForcedGC
	}
	before := forced() // read first: the collection may come before the test looks again
	srv, addr, _, _ := startLiveServer(t, 8*units.Mbps, 25*time.Millisecond, func(cfg *ServerConfig) {
		cfg.Out = discard{}
	})
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	// A hello the socket dropped is sent again; one that lands on a live
	// session admits nothing and does not restart the wave.
	for deadline := time.Now().Add(10 * time.Second); srv.Stats().Admitted == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the hello was never admitted")
		}
		sendHello(t, conn, addr, 1)
	}
	for deadline := time.Now().Add(10 * time.Second); forced() == before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no forced collection within 10 s of the admission (collectQuiet is %v)", collectQuiet)
		}
	}
}
