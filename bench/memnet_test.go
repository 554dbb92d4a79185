package main

import (
	"errors"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestMemnetRoundTrip(t *testing.T) {
	n := newMemNetwork(8, 64)
	a, b := n.listen(), n.listen()
	if _, err := a.WriteTo([]byte("hello"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	got, from, err := b.ReadFrom(buf)
	if err != nil || string(buf[:got]) != "hello" {
		t.Fatalf("ReadFrom = %q, %v", buf[:got], err)
	}
	ua, ok := from.(*net.UDPAddr)
	if !ok || ua.String() != a.LocalAddr().String() {
		t.Fatalf("from = %v (%T), want the sender's *net.UDPAddr %v", from, from, a.LocalAddr())
	}
	// The netip pair sees the same inbox.
	if _, err := a.WriteToUDPAddrPort([]byte("again"), b.ap); err != nil {
		t.Fatal(err)
	}
	got, ap, err := b.ReadFromUDPAddrPort(buf)
	if err != nil || string(buf[:got]) != "again" || ap != a.ap {
		t.Fatalf("ReadFromUDPAddrPort = %q from %v, %v", buf[:got], ap, err)
	}
	if _, err := a.WriteTo(make([]byte, 65), b.LocalAddr()); !errors.Is(err, errMsgSize) {
		t.Fatalf("oversized write: err = %v, want errMsgSize", err)
	}
}

func TestMemnetDeadline(t *testing.T) {
	n := newMemNetwork(8, 64)
	a, b := n.listen(), n.listen()
	buf := make([]byte, 64)

	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	start := time.Now()
	if _, _, err := b.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("empty inbox: err = %v, want deadline exceeded", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond || waited > 2*time.Second {
		t.Fatalf("deadline read returned after %v", waited)
	}
	// An expired deadline still drains what already arrived, like a socket.
	a.WriteTo([]byte("x"), b.LocalAddr())
	b.SetReadDeadline(time.Now().Add(-time.Second))
	if got, _, err := b.ReadFrom(buf); err != nil || got != 1 {
		t.Fatalf("queued datagram under an expired deadline: n=%d err=%v", got, err)
	}
	if _, _, err := b.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expired deadline, empty inbox: err = %v", err)
	}
	// A datagram arriving while the reader is parked wakes it, and the
	// reused timer does not fire into the next read.
	b.SetReadDeadline(time.Now().Add(5 * time.Second))
	go func() {
		time.Sleep(10 * time.Millisecond)
		a.WriteTo([]byte("late"), b.LocalAddr())
	}()
	if got, _, err := b.ReadFrom(buf); err != nil || string(buf[:got]) != "late" {
		t.Fatalf("parked read: %q, %v", buf[:got], err)
	}
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if _, _, err := b.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("after a wake-up: err = %v, want deadline exceeded", err)
	}
}

func TestMemnetCloseUnblocksRead(t *testing.T) {
	n := newMemNetwork(8, 64)
	a, b := n.listen(), n.listen()
	errc := make(chan error, 1)
	go func() {
		_, _, err := b.ReadFrom(make([]byte, 64))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read on a closed endpoint: err = %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the pending read")
	}
	// A write to the closed port vanishes and is not an inbox drop.
	if _, err := a.WriteTo([]byte("x"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if d := n.drops(); d != 0 {
		t.Fatalf("drops = %d after writing to a closed endpoint, want 0", d)
	}
}

func TestMemnetOverflowDropsAndCounts(t *testing.T) {
	n := newMemNetwork(4, 8)
	a, b := n.listen(), n.listen()
	for i := 0; i < 6; i++ {
		a.WriteTo([]byte{byte(i)}, b.LocalAddr())
	}
	if d := n.drops(); d != 2 {
		t.Fatalf("drops = %d, want 2", d)
	}
	buf := make([]byte, 8)
	for i := 0; i < 4; i++ {
		if got, _, err := b.ReadFrom(buf); err != nil || got != 1 || buf[0] != byte(i) {
			t.Fatalf("read %d: n=%d b=%v err=%v", i, got, buf[:got], err)
		}
	}
}

func TestMemnetSteadyStateDoesNotAllocate(t *testing.T) {
	n := newMemNetwork(8, 64)
	a, b := n.listen(), n.listen()
	msg, buf := make([]byte, 60), make([]byte, 64)
	dst := b.LocalAddr()
	b.SetReadDeadline(time.Now().Add(time.Minute))
	allocs := testing.AllocsPerRun(1000, func() {
		a.WriteTo(msg, dst)
		b.ReadFrom(buf)
	})
	if allocs != 0 {
		t.Fatalf("write+read allocates %v times, want 0", allocs)
	}
}

func TestMemnetConcurrentWriters(t *testing.T) {
	const writers, each = 4, 2000
	n := newMemNetwork(64, 16)
	dst := n.listen()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		src := n.listen()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				src.WriteTo([]byte{1, 2, 3}, dst.LocalAddr())
			}
		}()
	}
	done := make(chan int)
	go func() {
		got := 0
		buf := make([]byte, 16)
		for {
			dst.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			if _, _, err := dst.ReadFrom(buf); err != nil {
				done <- got
				return
			}
			got++
		}
	}()
	wg.Wait()
	got := <-done
	if total := uint64(got) + n.drops(); total != writers*each {
		t.Fatalf("read %d + dropped %d = %d, want %d", got, n.drops(), total, writers*each)
	}
}
