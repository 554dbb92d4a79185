// Package unexp declares the unexported cases the deadexport golden test
// judges: package app calls Run, and unexp_test.go, which only tests read,
// uses the rest.
package unexp

import "fmt"

// Run is the package's live code.
func Run() string {
	var s shape = square{side: 2}
	c := &counter{}
	c.hit()
	w := widget{size: 3}
	var tally struct{ unread int } // an unnamed struct's field is not judged
	tally.unread++
	seen := map[cell]bool{{1, 2}: true}
	return fmt.Sprint(s.area(), c.live, w.size, key{a: 1} == key{b: 2}, seen, point{1, 2}, kept{})
}

// onlyTested is called from unexp_test.go alone.
func onlyTested() int { return 2 } // want "onlyTested is unexported and only tests use it"

// limit is read by no one.
const limit = 7 // want "limit is unexported and only tests use it"

// shape is an interface Run uses.
type shape interface{ area() float64 }

// square implements shape.
type square struct{ side float64 }

// area implements shape: Run calls it through the interface.
func (s square) area() float64 { return s.side * s.side }

// perimeter is called from unexp_test.go alone.
func (s square) perimeter() float64 { return 4 * s.side } // want "square.perimeter is unexported and only tests use it"

// counter counts hits, but nothing reads hits.
type counter struct {
	live int
	hits int // want "counter.hits is written but never read"
}

func (c *counter) hit() {
	c.live = 1
	c.hits++
}

// widget's tag is read by unexp_test.go alone.
type widget struct {
	size int
	tag  string // want "widget.tag is unexported and only tests use it"
}

// key is compared with ==, which reads every field.
type key struct{ a, b int }

// cell is a map key.
type cell struct{ x, y int }

// point is handed whole to fmt.
type point struct{ x, y int }

// oracle stays for the tests.
//
//pelsvet:allow deadexport paper-equation oracle the tests compare against
func oracle() float64 { return 3 }

// kept stays whole for the tests, its methods and fields with it.
//
//pelsvet:allow deadexport a test substitute, kept whole
type kept struct{ n int }

func (k kept) peek() int { return k.n }
