//go:build race

package workload

// raceEnabled reports a -race build, whose instrumentation moves values
// to the heap and so changes allocation counts.
const raceEnabled = true
