package session

import (
	"time"

	"repro/internal/packet"
)

// FeedbackItem is one decoded feedback datagram attributed to a session.
type FeedbackItem struct {
	Key Key
	FB  packet.Feedback
}

// Batcher coalesces feedback items with a count+maxWait policy: a batch
// flushes when it reaches Count items, or — via Due — when MaxWait has
// elapsed since its first item. The server does not use it (it applies
// each label on arrival); the benchmark's ingress stages do.
//
// Batcher is not safe for concurrent use. Flushed slices are recycled
// double-buffered — a returned batch is valid until the second following
// flush.
//
//pelsvet:allow deadexport bench/ holds Batcher whole until ROADMAP item 1 deletes it with its stage
type Batcher struct {
	count   int
	maxWait time.Duration

	items   []FeedbackItem
	spare   []FeedbackItem
	firstAt time.Time
}

// NewBatcher builds a batcher flushing at count items or maxWait delay,
// whichever comes first. count < 1 flushes every item immediately;
// maxWait <= 0 means a partial batch flushes on the next Due poll.
func NewBatcher(count int, maxWait time.Duration) *Batcher {
	if count < 1 {
		count = 1
	}
	return &Batcher{
		count:   count,
		maxWait: maxWait,
		items:   make([]FeedbackItem, 0, count),
		spare:   make([]FeedbackItem, 0, count),
	}
}

// Add appends one item at instant now. It returns the full batch when the
// count threshold is reached, nil otherwise.
//
//pelsvet:noalloc
func (b *Batcher) Add(it FeedbackItem, now time.Time) []FeedbackItem {
	if len(b.items) == 0 {
		b.firstAt = now
	}
	b.items = append(b.items, it)
	if len(b.items) >= b.count {
		return b.take()
	}
	return nil
}

// due returns the pending batch when its oldest item has waited maxWait
// or longer, nil otherwise.
//
//pelsvet:noalloc
func (b *Batcher) due(now time.Time) []FeedbackItem {
	if len(b.items) == 0 || now.Sub(b.firstAt) < b.maxWait {
		return nil
	}
	return b.take()
}

// deadline returns the instant the pending batch becomes due, and false
// when nothing is pending.
func (b *Batcher) deadline() (time.Time, bool) {
	if len(b.items) == 0 {
		return time.Time{}, false
	}
	return b.firstAt.Add(b.maxWait), true
}

// pending returns the number of buffered items.
func (b *Batcher) pending() int { return len(b.items) }

//pelsvet:noalloc
func (b *Batcher) take() []FeedbackItem {
	out := b.items
	b.items = b.spare[:0]
	b.spare = out
	return out
}
