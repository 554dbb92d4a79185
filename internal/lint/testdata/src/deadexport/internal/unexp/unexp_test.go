package unexp

import "testing"

func TestOnlyTested(t *testing.T) {
	w := widget{tag: "x"}
	if onlyTested()+limit != 9 || (square{side: 1}).perimeter() != 4 || oracle() != 3 || w.tag != "x" || (kept{}).peek() != 0 {
		t.Fatal("unexp")
	}
}
