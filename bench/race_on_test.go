//go:build race

package main

// raceEnabled tells the smoke test the program runs several times slower.
const raceEnabled = true
