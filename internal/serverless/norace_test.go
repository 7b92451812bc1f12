//go:build !race

package serverless

const raceEnabled = false
