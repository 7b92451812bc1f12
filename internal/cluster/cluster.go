// Package cluster keeps the fleet names the benchmark module calls;
// the fleet simulator itself is serverless.RunFleet. New code calls
// package serverless directly.
package cluster

import (
	"github.com/medusa-repro/medusa/internal/serverless"
	"github.com/medusa-repro/medusa/internal/workload"
)

// Config is serverless.Fleet.
type Config = serverless.Fleet

// Run is serverless.RunFleet.
func Run(cfg Config) (*serverless.FleetResult, error) { return serverless.RunFleet(cfg) }

// ZipfArrivals is serverless.ZipfArrivals.
func ZipfArrivals(src workload.Source, numDeps int, seed int64, s float64) (serverless.ArrivalSource, error) {
	return serverless.ZipfArrivals(src, numDeps, seed, s)
}
