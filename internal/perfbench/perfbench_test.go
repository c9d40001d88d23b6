package perfbench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fakeClock returns a deterministic monotonic clock advancing by step
// nanoseconds per reading.
func fakeClock(step int64) func() int64 {
	var t int64
	return func() int64 {
		t += step
		return t
	}
}

// sweepKey names one distinct quick-sweep config: the fake clock's
// step (0 = no clock) and whether wall metrics are published.
type sweepKey struct {
	step        int64
	includeWall bool
}

// sweeps memoizes one seed-42 quick sweep per distinct config. A sweep
// dominates this package's test time and the tests only read the
// report, so tests sharing a config share one sweep.
var sweeps = map[sweepKey]*Report{}

func quickSweep(t *testing.T, step int64, includeWall bool) *Report {
	t.Helper()
	key := sweepKey{step, includeWall}
	if rep, ok := sweeps[key]; ok {
		return rep
	}
	cfg := Config{Seed: 42, Quick: true, IncludeWall: includeWall}
	if step > 0 {
		cfg.Now = fakeClock(step)
	}
	_, rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sweeps[key] = rep
	return rep
}

// TestReportIsByteIdentical: two same-seed quick sweeps must serialize
// to the same bytes, even when their injected wall clocks disagree —
// machine-dependent numbers stay out of the report unless IncludeWall
// is set. This is the property the CI perf-smoke job pins with cmp.
func TestReportIsByteIdentical(t *testing.T) {
	run := func(step int64) []byte {
		data, err := quickSweep(t, step, false).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := run(10)
	b := run(1000) // a very different "machine"
	if !bytes.Equal(a, b) {
		t.Fatalf("reports differ between same-seed sweeps:\n%s\n----\n%s", a, b)
	}
}

// TestReportSchemaRoundTrip: BENCH_perf.json must parse back into the
// Report shape with the schema version, full variant catalog, and one
// row per (stage, variant).
func TestReportSchemaRoundTrip(t *testing.T) {
	data, err := quickSweep(t, 0, false).JSON()
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if got.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d, want %d", got.SchemaVersion, SchemaVersion)
	}
	if got.Experiment != "perf" {
		t.Fatalf("experiment %q, want perf", got.Experiment)
	}
	if len(got.Variants) != len(Variants()) {
		t.Fatalf("%d variants, want %d", len(got.Variants), len(Variants()))
	}
	if want := len(got.Variants) * len(got.Stages); len(got.Rows) != want {
		t.Fatalf("%d rows, want %d (stages x variants)", len(got.Rows), want)
	}
	for _, row := range got.Rows {
		if row.Events == 0 {
			t.Fatalf("row %s/%s reports zero events", row.Stage, row.Variant)
		}
		if row.Wall != nil {
			t.Fatalf("row %s/%s leaked wall metrics without IncludeWall", row.Stage, row.Variant)
		}
	}
	if got.SpeedupVsBaseline != nil {
		t.Fatal("speedups leaked without IncludeWall")
	}
}

// TestIncludeWallPublishesMetrics: opting in puts wall rows and the
// speedup map into the JSON.
func TestIncludeWallPublishesMetrics(t *testing.T) {
	rep := quickSweep(t, 5, true)
	for _, row := range rep.Rows {
		if row.Wall == nil {
			t.Fatalf("row %s/%s missing wall metrics under IncludeWall", row.Stage, row.Variant)
		}
		if row.Wall.EventsPerSec <= 0 {
			t.Fatalf("row %s/%s: non-positive events/sec", row.Stage, row.Variant)
		}
	}
	if len(rep.SpeedupVsBaseline) == 0 {
		t.Fatal("no speedups computed under IncludeWall")
	}
	if err := rep.SanityCheck(); err != nil {
		// A constant-step fake clock times every block identically, so
		// full >= baseline trivially holds; failure means bookkeeping
		// broke, not noise.
		t.Fatal(err)
	}
}

// TestLaneSweep: the parallel-engine rows cover every worker count
// with identical deterministic results (the sweep itself errors on a
// digest mismatch; this pins the shape), wall sections under
// IncludeWall, and — under a constant-step fake clock, where every
// solo shard times identically — a span-model speedup exactly equal
// to the worker count.
func TestLaneSweep(t *testing.T) {
	rep := quickSweep(t, 5, true)
	if len(rep.LaneSweep) != len(laneWorkerCounts) {
		t.Fatalf("%d lane rows, want %d", len(rep.LaneSweep), len(laneWorkerCounts))
	}
	first := rep.LaneSweep[0]
	if first.Ops == 0 || first.EventsFired == 0 {
		t.Fatalf("lane sweep did no work: %+v", first)
	}
	for i, row := range rep.LaneSweep {
		if row.Workers != laneWorkerCounts[i] {
			t.Fatalf("row %d: workers %d, want %d", i, row.Workers, laneWorkerCounts[i])
		}
		if row.Ops != first.Ops || row.EventsFired != first.EventsFired ||
			row.Epochs != first.Epochs || row.ShardDigest != first.ShardDigest {
			t.Fatalf("workers=%d row diverges from workers=%d: %+v vs %+v",
				row.Workers, first.Workers, row, first)
		}
		if row.Wall == nil {
			t.Fatalf("workers=%d: missing wall section under IncludeWall", row.Workers)
		}
		if want := float64(row.Workers); row.Wall.SpanSpeedup != want {
			t.Fatalf("workers=%d: span speedup %.2f, want exactly %.2f under a constant-step clock",
				row.Workers, row.Wall.SpanSpeedup, want)
		}
	}
	if got := len(rep.LaneLines()); got != len(rep.LaneSweep) {
		t.Fatalf("%d lane lines, want %d", got, len(rep.LaneSweep))
	}
}

// TestSanityCheckNeedsClock: without an injected clock there is
// nothing to check, and saying so beats vacuously passing.
func TestSanityCheckNeedsClock(t *testing.T) {
	if err := quickSweep(t, 0, false).SanityCheck(); err == nil {
		t.Fatal("SanityCheck passed with no wall metrics")
	}
}

// TestVariantCatalog: the sweep is exactly one A/B pair, baseline
// first so speedups have their denominator — the exact per-event
// reference as "baseline" and the fast path production runs take as
// "full".
func TestVariantCatalog(t *testing.T) {
	want := []Variant{{Name: "baseline", Exact: true}, {Name: "full"}}
	vs := Variants()
	if len(vs) != len(want) {
		t.Fatalf("%d variants %+v, want %+v", len(vs), vs, want)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("variant %d is %+v, want %+v", i, vs[i], want[i])
		}
	}
}
