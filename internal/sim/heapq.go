package sim

import "container/heap"

// heapQueue is the original event queue: a binary min-heap via
// container/heap, ordered by (at, seq). It is retained as the reference
// implementation for determinism cross-checks against the calendar queue
// (see Engine.UseHeapQueue) and for the perf baseline benchmarks.
type heapQueue struct {
	events eventHeap
}

var _ eventQueue = (*heapQueue)(nil)

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
