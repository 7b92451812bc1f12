//go:build race

package serverless

// raceEnabled reports a -race build, whose instrumentation moves values
// to the heap and so changes allocation counts.
const raceEnabled = true
