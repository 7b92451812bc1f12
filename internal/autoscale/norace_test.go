//go:build !race

package autoscale

const raceEnabled = false
