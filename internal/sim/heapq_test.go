package sim

import "container/heap"

// heapQueue is the engine's original event queue: a binary min-heap via
// container/heap, ordered by (at, seq). It is the reference the calendar
// queue's pop order is checked against (TestCalendarMatchesHeapOrder,
// TestTimerMatchesCancelAndSchedule).
type heapQueue struct {
	events eventHeap
}

var _ eventQueue = (*heapQueue)(nil)

// newEngineOn returns an engine seeded with seed, running on the reference
// heap when useHeap is set and on the calendar queue otherwise.
func newEngineOn(seed int64, useHeap bool) *Engine {
	e := NewEngine(seed)
	if useHeap {
		e.q = &heapQueue{}
	}
	return e
}

func (h *heapQueue) push(ev *Event) { heap.Push(&h.events, ev) }

func (h *heapQueue) pop() *Event {
	if len(h.events) == 0 {
		return nil
	}
	return heap.Pop(&h.events).(*Event)
}

func (h *heapQueue) len() int { return len(h.events) }

func (h *heapQueue) compact() int {
	live := h.events[:0]
	removed := 0
	for _, ev := range h.events {
		if ev.cancelled {
			ev.done = true
			removed++
			if ev.pooled {
				ev.eng.release(ev)
			}
			continue
		}
		live = append(live, ev)
	}
	for i := len(live); i < len(h.events); i++ {
		h.events[i] = nil
	}
	h.events = live
	heap.Init(&h.events)
	return removed
}

// eventHeap is a min-heap ordered by (at, seq) so that events scheduled for
// the same instant execute in insertion order.
type eventHeap []*Event

var _ heap.Interface = (*eventHeap)(nil)

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*Event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
