//go:build race

package core

// raceDetector reports a build with the race detector, whose sync.Pool
// drops puts at random: fmt then builds a fresh printer and buffer for
// some calls, so an allocation count that includes formatting varies.
const raceDetector = true
