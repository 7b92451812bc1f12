//go:build !race

package kvcache

const raceEnabled = false
