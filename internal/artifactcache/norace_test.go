//go:build !race

package artifactcache

const raceEnabled = false
