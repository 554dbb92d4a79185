package wire

import "slices"

// fifo is a first-in-first-out line that also takes an element out of, or
// puts one into, any position: the link's queue evicts by priority and its
// delivery line is sorted by instant. It is a slice with a head index. A
// plain queue = queue[1:] with append walks through its backing array and
// allocates the next one each time it reaches the end; this one slides what
// it holds back to the front of the same array instead, and only when at
// least half the array is spent, so the slide costs each element that passes
// through less than one copy. The array doubles when it is more than half
// full at that point, and a line that has reached its working depth is never
// allocated again. The zero value is an empty line.
type fifo[T any] struct {
	items []T // items[head:] are held, oldest first; items[:head] are spent
	head  int
}

// held returns the elements in order, oldest first. The slice is the line's
// own: it is valid until the next push, insert, pop or remove.
func (f *fifo[T]) held() []T { return f.items[f.head:] }

// len returns how many elements are held.
func (f *fifo[T]) len() int { return len(f.items) - f.head }

// room makes sure the next append lands in the line's own array.
func (f *fifo[T]) room() {
	if len(f.items) < cap(f.items) {
		return
	}
	n := f.len()
	if f.head > 0 && f.head >= len(f.items)/2 {
		copy(f.items, f.items[f.head:])
		clear(f.items[n:])
		f.items, f.head = f.items[:n], 0
		return
	}
	items := make([]T, n, max(16, 2*cap(f.items)))
	copy(items, f.items[f.head:])
	f.items, f.head = items, 0
}

// push appends v at the tail.
func (f *fifo[T]) push(v T) {
	f.room()
	f.items = append(f.items, v)
}

// insert puts v at position i of held, 0 ≤ i ≤ len; what was at i and after
// moves one place towards the tail.
func (f *fifo[T]) insert(i int, v T) {
	f.room()
	f.items = slices.Insert(f.items, f.head+i, v)
}

// pop removes and returns the oldest element; the line must not be empty.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.items[f.head]
	f.items[f.head] = zero
	if f.head++; f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	}
	return v
}

// remove takes out and returns position i of held, 0 ≤ i < len; what was
// after it moves one place towards the head.
func (f *fifo[T]) remove(i int) T {
	v := f.items[f.head+i]
	f.items = slices.Delete(f.items, f.head+i, f.head+i+1) // clears the vacated tail
	return v
}
