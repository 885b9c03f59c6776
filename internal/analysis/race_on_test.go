//go:build race

package analysis_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
