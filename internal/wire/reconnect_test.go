package wire

// Receiver subscription state machine tests: hello backoff, Reject and
// Close handling, and the reconnect reset — a one-receiver swarm driven
// through handle and helloStep on a synthetic clock, no sockets.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/packet"
)

// testReceiver builds a one-receiver swarm for flow 7 on a recording
// socket and a hand-cranked clock.
func testReceiver(t *testing.T, mut func(*SwarmConfig)) (*Swarm, *swarmLog, *time.Time) {
	t.Helper()
	now := time.Unix(2000, 0)
	cfg := SwarmConfig{Receivers: 1, FirstFlow: 7, HelloRetry: 100 * time.Millisecond}
	if mut != nil {
		mut(&cfg)
	}
	s, log := steppedSwarm(t, cfg, now, true)
	return s, log, &now
}

// stats is the one receiver's snapshot.
func stats(s *Swarm) ReceiverStats { return s.Stats()[0] }

// flowDataDatagram encodes one green data datagram for flow 7.
func flowDataDatagram(t *testing.T, seq uint64) []byte {
	t.Helper()
	b, err := EncodeDatagram(Header{
		Type: TypeData, Color: packet.Green, Flow: 7, Seq: seq, Frame: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// labelledDatagram is flowDataDatagram stamped with router 1's label for
// epoch.
func labelledDatagram(t *testing.T, seq, epoch uint64) []byte {
	t.Helper()
	b, err := EncodeDatagram(Header{
		Type: TypeData, Color: packet.Green, Flow: 7, Seq: seq, Frame: 1,
		Feedback: packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.1, Valid: true},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// controlDatagram encodes a Reject or Close for flow 7.
func controlDatagram(t *testing.T, typ Type, reason Reason, retry time.Duration) []byte {
	t.Helper()
	b, err := EncodeDatagram(ControlHeader(typ, 7, reason, retry, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// crank advances the clock a hello tick at a time for d, stepping the
// swarm at each, and returns the error that ended the receiver, if one
// did.
func crank(s *Swarm, now *time.Time, d time.Duration) error {
	for end := now.Add(d); now.Before(end); {
		*now = now.Add(helloTick)
		if now.After(end) {
			*now = end
		}
		s.helloStep(*now)
		if s.ended() {
			if err := s.endErr(); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestReceiverHelloBackoff: retries space out exponentially toward
// 8·HelloRetry, and the first data datagram stops the helloing.
func TestReceiverHelloBackoff(t *testing.T) {
	s, log, now := testReceiver(t, nil)
	if err := crank(s, now, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sent := stats(s).HellosSent
	if sent == 0 {
		t.Fatal("no hellos sent")
	}
	// 2s of 100ms-retry with doubling (cap 800ms): 100+125%jitter →
	// far fewer than the 20 a fixed interval would give, more than the
	// 3 a saturated cap would.
	if sent > 10 || sent < 4 {
		t.Errorf("%d hellos in 2s, want backoff (4..10)", sent)
	}
	if len(log.sent) != int(sent) {
		t.Errorf("conn saw %d writes, stats say %d", len(log.sent), sent)
	}

	s.handle(0, flowDataDatagram(t, 0), *now)
	before := stats(s).HellosSent
	if err := crank(s, now, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := stats(s).HellosSent; got != before {
		t.Errorf("kept helloing after data: %d -> %d", before, got)
	}
}

// TestReceiverHelloTimeout: a bounded attempt budget ends the receiver
// with ErrHelloTimeout naming the last reject.
func TestReceiverHelloTimeout(t *testing.T) {
	s, _, now := testReceiver(t, func(cfg *SwarmConfig) {
		cfg.HelloAttempts = 3
		cfg.Reconnect = true // a lone Reject must not end the run early
	})
	if err := crank(s, now, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	s.handle(0, controlDatagram(t, TypeReject, ReasonServerFull, 0), *now)
	err := crank(s, now, 10*time.Second)
	if !errors.Is(err, ErrHelloTimeout) {
		t.Fatalf("err = %v, want ErrHelloTimeout", err)
	}
	if got := stats(s).HellosSent; got != 3 {
		t.Errorf("sent %d hellos, budget was 3", got)
	}
	// The failure names the refusal the receiver saw.
	if want := ReasonServerFull.String(); !errors.Is(err, ErrHelloTimeout) ||
		!containsString(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func containsString(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReceiverRejectTerminal: a retryable Reject backs off — Reconnect or
// not, its retry-after floors the next hello — and bad-config ends the run
// with a RejectError.
func TestReceiverRejectTerminal(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reconnect bool
		reason    Reason
	}{
		{"no-reconnect", false, ReasonServerFull},
		{"not-retryable", true, ReasonBadConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, now := testReceiver(t, func(cfg *SwarmConfig) {
				cfg.Reconnect = tc.reconnect
			})
			if err := crank(s, now, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			s.handle(0, controlDatagram(t, TypeReject, tc.reason, 250*time.Millisecond), *now)
			done, err := s.ended(), s.endErr()
			if !tc.reason.Retryable() {
				var rej *RejectError
				if !done || !errors.As(err, &rej) || rej.Reason != tc.reason {
					t.Fatalf("done=%v err=%v, want RejectError{%v}", done, err, tc.reason)
				}
				return
			}
			if done {
				t.Fatalf("retryable reject finished the receiver: %v", err)
			}
			sent := stats(s).HellosSent
			if err := crank(s, now, 240*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if got := stats(s).HellosSent; got != sent {
				t.Errorf("helloed %d times before the retry-after hint elapsed", got-sent)
			}
			if err := crank(s, now, time.Second); err != nil {
				t.Fatal(err)
			}
			if got := stats(s).HellosSent; got == sent {
				t.Error("never helloed again after the retry-after window")
			}
		})
	}
}

// TestReceiverRejectRetryAfter: with Reconnect, a retryable Reject is
// not terminal and the server's retry-after hint floors the next hello.
func TestReceiverRejectRetryAfter(t *testing.T) {
	s, _, now := testReceiver(t, func(cfg *SwarmConfig) {
		cfg.Reconnect = true
	})
	if err := crank(s, now, time.Millisecond); err != nil { // first hello goes out
		t.Fatal(err)
	}
	s.handle(0, controlDatagram(t, TypeReject, ReasonServerFull, 600*time.Millisecond), *now)
	if s.ended() {
		t.Fatal("retryable reject finished a reconnecting receiver")
	}
	if got := stats(s).Rejects; got != 1 {
		t.Fatalf("Rejects = %d, want 1", got)
	}
	if got := stats(s).LastRejectRetry; got != 600*time.Millisecond {
		t.Fatalf("LastRejectRetry = %v, want 600ms", got)
	}
	sent := stats(s).HellosSent
	// Cranking less than the hint must not hello again (jitter only
	// stretches the wait); past hint+25% it must.
	if err := crank(s, now, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := stats(s).HellosSent; got != sent {
		t.Errorf("helloed %d times before the retry-after hint elapsed", got-sent)
	}
	if err := crank(s, now, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := stats(s).HellosSent; got == sent {
		t.Error("never helloed again after the retry-after window")
	}
}

// TestReceiverCloseReconnect: a retryable Close folds the stream into
// the archive, keeps the echo numbering running across the reset, and
// re-enters the hello loop; Close(complete) finishes.
func TestReceiverCloseReconnect(t *testing.T) {
	s, log, now := testReceiver(t, func(cfg *SwarmConfig) {
		cfg.Reconnect = true
	})
	for seq := uint64(0); seq < 5; seq++ {
		s.handle(0, labelledDatagram(t, seq, seq+1), *now)
	}
	st := stats(s)
	if st.Colors[packet.Green].Received != 5 {
		t.Fatalf("green received %d, want 5", st.Colors[packet.Green].Received)
	}
	var seqBefore uint64
	for _, d := range log.sent {
		if d.typ == TypeFeedback {
			seqBefore = max(seqBefore, d.seq)
		}
	}
	if seqBefore == 0 {
		t.Fatal("no echo before the close")
	}

	s.handle(0, controlDatagram(t, TypeClose, ReasonIdle, 0), *now)
	if s.ended() {
		t.Fatal("retryable close finished a reconnecting receiver")
	}
	st = stats(s)
	if st.Closes != 1 || st.Reconnects != 1 || st.LastClose != ReasonIdle {
		t.Fatalf("closes=%d reconnects=%d last=%v, want 1/1/idle", st.Closes, st.Reconnects, st.LastClose)
	}
	// Archived delivery survives the reset.
	if st.Colors[packet.Green].Received != 5 {
		t.Errorf("archive lost green counts: %d", st.Colors[packet.Green].Received)
	}

	// The receiver hellos again.
	writes := len(log.sent)
	if err := crank(s, now, time.Second); err != nil {
		t.Fatal(err)
	}
	if len(log.sent) == writes {
		t.Fatal("no hello after reconnectable close")
	}
	if d := log.sent[len(log.sent)-1]; d.typ != TypeHello {
		t.Fatalf("reconnect datagram %+v, want a hello", d)
	}

	// A resumed stream counts from zero without phantom loss, and its
	// first echo is numbered above every echo before the close.
	s.handle(0, labelledDatagram(t, 0, 1), *now)
	st = stats(s)
	if got := st.Colors[packet.Green]; got.Received != 6 || got.Lost != 0 {
		t.Errorf("after resume: green %+v, want 6 received, 0 lost", got)
	}
	if d := log.sent[len(log.sent)-1]; d.typ != TypeFeedback || d.seq <= seqBefore {
		t.Errorf("first echo after the resume %+v: want TypeFeedback with Seq > %d", d, seqBefore)
	}

	s.handle(0, controlDatagram(t, TypeClose, ReasonComplete, 0), *now)
	if done, err := s.ended(), s.endErr(); !done || err != nil {
		t.Fatalf("Close(complete): done=%v err=%v, want clean finish", done, err)
	}
}
