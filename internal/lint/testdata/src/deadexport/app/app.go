// Package app is lib's non-test importer.
package app

import (
	"fmt"

	"deadexport/internal/lib"
	"deadexport/internal/unexp"
)

// Run uses lib's and unexp's live identifiers.
func Run() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(lib.Used(), lib.Temp(21), s.Area(), unexp.Run())
}
