// Package lib declares what the deadexport golden test judges: package app
// is its only non-test importer, and lib_test.go, which only tests read,
// uses the rest.
package lib

import "fmt"

// Used is called from package app.
func Used() int { return 1 }

// OnlyTested is called from lib_test.go alone.
func OnlyTested() int { return 2 } // want "OnlyTested is exported but only tests use it"

// Limit is read by no one.
const Limit = 7 // want "Limit is exported but only tests use it"

// Temp is a type app uses.
type Temp float64

// String implements fmt.Stringer: fmt calls it, nobody names it.
func (t Temp) String() string { return fmt.Sprintf("%.1f°", float64(t)) }

// Shape is an interface app uses.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

// Area implements Shape: app calls it through the interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is called from lib_test.go alone.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want "Square.Perimeter is exported but only tests use it"

// Oracle stays for the tests.
//
//pelsvet:allow deadexport paper-equation oracle the tests compare against
func Oracle() float64 { return 3 }
