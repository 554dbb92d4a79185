package session

import (
	"testing"
	"time"

	"repro/internal/packet"
)

func fbItem(flow uint32, epoch uint64) FeedbackItem {
	return FeedbackItem{
		Key: Key{Addr: "10.0.0.1:5000", Flow: flow},
		FB:  packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.1, Valid: true},
	}
}

func TestBatcherCountFlush(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBatcher(3, time.Second)
	if got := b.Add(fbItem(1, 1), t0); got != nil {
		t.Fatalf("flushed at 1 item with count 3")
	}
	if got := b.Add(fbItem(2, 1), t0); got != nil {
		t.Fatalf("flushed at 2 items with count 3")
	}
	got := b.Add(fbItem(3, 1), t0)
	if len(got) != 3 {
		t.Fatalf("count flush returned %d items, want 3", len(got))
	}
	if b.pending() != 0 {
		t.Fatalf("pending %d after flush, want 0", b.pending())
	}
}

func TestBatcherMaxWaitDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBatcher(100, 5*time.Millisecond)
	b.Add(fbItem(1, 1), t0)
	if got := b.due(t0.Add(4 * time.Millisecond)); got != nil {
		t.Fatal("partial batch flushed before maxWait")
	}
	got := b.due(t0.Add(5 * time.Millisecond))
	if len(got) != 1 {
		t.Fatalf("due flush returned %d items, want 1", len(got))
	}
	if b.due(t0.Add(time.Second)) != nil {
		t.Fatal("empty batcher reported a due batch")
	}
}

func TestBatcherDeadline(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBatcher(100, 5*time.Millisecond)
	if _, ok := b.deadline(); ok {
		t.Fatal("empty batcher reported a deadline")
	}
	b.Add(fbItem(1, 1), t0)
	dl, ok := b.deadline()
	if !ok || !dl.Equal(t0.Add(5*time.Millisecond)) {
		t.Fatalf("deadline %v ok=%v, want %v", dl, ok, t0.Add(5*time.Millisecond))
	}
	// The deadline is anchored at the FIRST item of the pending batch.
	b.Add(fbItem(2, 1), t0.Add(3*time.Millisecond))
	if dl2, _ := b.deadline(); !dl2.Equal(dl) {
		t.Fatalf("deadline moved to %v after a second item, want %v", dl2, dl)
	}
}

func TestBatcherDoubleBufferReuse(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBatcher(2, time.Second)
	first := b.Add(fbItem(2, 7), t0)
	if first != nil {
		t.Fatal("premature flush")
	}
	first = b.Add(fbItem(3, 7), t0)
	if len(first) != 2 || first[0].Key.Flow != 2 {
		t.Fatalf("unexpected first batch %v", first)
	}
	// The first batch stays intact through the next flush: it fills and
	// drains the other buffer.
	if got := b.Add(fbItem(4, 8), t0); got != nil {
		t.Fatal("premature flush")
	}
	second := b.Add(fbItem(5, 8), t0)
	if len(second) != 2 || second[0].Key.Flow != 4 {
		t.Fatalf("unexpected second batch %v", second)
	}
	if first[0].Key.Flow != 2 || first[1].Key.Flow != 3 {
		t.Fatalf("first batch corrupted by the following flush: %v", first)
	}
}

func TestBatcherCountFloor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBatcher(0, time.Second)
	if got := b.Add(fbItem(1, 1), t0); len(got) != 1 {
		t.Fatalf("count<1 must flush every item, got %v", got)
	}
}
