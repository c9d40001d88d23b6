package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"kloc/internal/cluster"
	"kloc/internal/harness"
	"kloc/internal/trace"
)

// resultDigest hashes a run's simulated outcome. The tracer, its
// summary and the accounting meters are left out: they describe how
// the run was observed, not what it simulated, and differ between a
// traced and an untraced run of the same seed.
func resultDigest(r *harness.Result) (string, error) {
	sim := *r
	sim.Trace = nil
	sim.TraceStats = trace.Stats{}
	sim.Perf = harness.PerfMeters{}
	sim.Sanitize = nil
	body, err := json.Marshal(struct {
		Result *harness.Result
		// OpCost keeps its samples in unexported fields.
		OpCost [5]float64
	}{&sim, [5]float64{float64(r.OpCost.Count()), r.OpCost.Mean(),
		r.OpCost.Quantile(0.5), r.OpCost.Quantile(0.99), r.OpCost.Max()}})
	if err != nil {
		return "", fmt.Errorf("digest %s/%s: %w", r.Policy, r.Workload, err)
	}
	return hash(string(body)), nil
}

// reportDigest hashes a fleet run's rendered report, which carries
// every serving-plane counter and latency quantile.
func reportDigest(r *cluster.Report) string { return hash(r.String()) }

func hash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
