package main

import (
	"kloc/internal/harness"
	"kloc/internal/sim"
	"kloc/internal/trace"
)

// workCounts sums the deterministic work counters of a job's runs. The
// layers below the policy (fs, blockdev, memsim, alloc) cannot be timed
// from outside a full run, so these counts stand in for them.
type workCounts struct {
	ops, degraded       uint64
	migrated            uint64
	kernRefs, appRefs   uint64
	allocs, slowAllocs  uint64
	klocRuns            int
	fastPathHitSum      float64
	metadataBytes       int
	opens, reads        uint64
	writes, syncs       uint64
	journalCommits      uint64
	cacheHits, cacheAll uint64
	raIssued, raHits    uint64
	devBusy             sim.Duration
	accAdds, accCommits uint64
	framesFresh, reused uint64
	trace               map[trace.Name]uint64
}

func (w *workCounts) add(r *harness.Result) {
	w.ops += uint64(r.Ops)
	w.degraded += r.DegradedOps
	w.migrated += r.Mem.MigratedPages
	w.kernRefs += r.KernRefs
	w.appRefs += r.AppRefs
	for c := range r.AllocsByClass {
		w.allocs += r.AllocsByClass[c]
		w.slowAllocs += r.SlowAllocsByClass[c]
	}
	if r.KlocMetadataBytes > 0 {
		w.klocRuns++
		w.fastPathHitSum += r.FastPathHitRate
		w.metadataBytes += r.KlocMetadataBytes
	}
	w.opens += r.FS.Opens
	w.reads += r.FS.Reads
	w.writes += r.FS.Writes
	w.syncs += r.FS.Syncs
	w.journalCommits += r.FS.JournalCommits
	w.cacheHits += r.FS.CacheHits
	w.cacheAll += r.FS.CacheHits + r.FS.CacheMisses
	w.raIssued += r.ReadaheadIssued
	w.raHits += r.ReadaheadHits
	w.devBusy += r.DevBusy
	w.accAdds += r.Perf.Mem.AccAdds
	w.accCommits += r.Perf.Mem.AccCommits
	w.framesFresh += r.Perf.Mem.FramesFresh
	w.reused += r.Perf.Mem.FramesReused
	w.addTrace(r.TraceStats)
}

// addTrace folds a tracer's per-event-name totals in (zero-valued
// stats from an unarmed tracer add nothing).
func (w *workCounts) addTrace(s trace.Stats) {
	if w.trace == nil {
		w.trace = make(map[trace.Name]uint64)
	}
	for _, nc := range s.ByName {
		w.trace[nc.Name] += nc.Count
	}
}

// availability is the share of measured ops that absorbed no errno.
func (w *workCounts) availability() float64 {
	return 1 - ratio(w.degraded, w.ops)
}

// layers writes the per-layer work counts and useful/attempt ratios.
func (w *workCounts) layers(m map[string]float64) {
	m["memsim.migrated_pages"] = float64(w.migrated)
	m["memsim.kernel_refs"] = float64(w.kernRefs)
	m["memsim.app_refs"] = float64(w.appRefs)
	m["memsim.frame_reuse_ratio"] = ratio(w.reused, w.framesFresh+w.reused)
	m["alloc.slow_alloc_frac"] = ratio(w.slowAllocs, w.allocs)
	if w.klocRuns > 0 {
		m["kloc.fastpath_hit_rate"] = w.fastPathHitSum / float64(w.klocRuns)
	}
	m["kloc.metadata_bytes"] = float64(w.metadataBytes)
	m["fs.opens"] = float64(w.opens)
	m["fs.reads"] = float64(w.reads)
	m["fs.writes"] = float64(w.writes)
	m["fs.syncs"] = float64(w.syncs)
	m["fs.journal_commits"] = float64(w.journalCommits)
	m["fs.cache_hit_rate"] = ratio(w.cacheHits, w.cacheAll)
	m["fs.readahead_hit_rate"] = ratio(w.raHits, w.raIssued)
	m["blockdev.busy_ms"] = float64(w.devBusy) / float64(sim.Millisecond)
	m["percpu.commit_ratio"] = ratio(w.accCommits, w.accAdds)
	for _, name := range trace.Names() {
		m["trace."+string(name)] = float64(w.trace[name])
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
