//go:build race

package fafnir

// raceDetectorEnabled reports whether this test binary was built with -race,
// whose runtime's allocation counts are not the program's alone.
const raceDetectorEnabled = true
