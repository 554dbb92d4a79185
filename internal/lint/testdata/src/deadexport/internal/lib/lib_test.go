package lib

import "testing"

func TestOnlyTested(t *testing.T) {
	if OnlyTested()+Limit != 9 || (Square{Side: 1}).Perimeter() != 4 || Oracle() != 3 {
		t.Fatal("lib")
	}
}
