// Sharded execution: RunShards drives several independent simulations
// ("shards") concurrently under sim.Lanes, the deterministic epoch/
// barrier executor (ROADMAP item 2). Each shard is a full kernel stack
// on its own engine with its own forked seed, so shard results are
// byte-identical to running each shard alone with Run — worker count
// and GOMAXPROCS change wall-clock only, never results. The lane
// determinism tests pin exactly that.
package harness

import (
	"fmt"

	"kloc/internal/sim"
	"kloc/internal/trace"
)

// ShardsConfig describes a sharded fleet run.
type ShardsConfig struct {
	// Base is the per-shard run configuration. Policies and workloads
	// must be named (PolicyName/Workload), not pre-built instances: a
	// shared Policy object would couple the shards.
	Base RunConfig
	// Shards is the number of logical CPUs (independent simulations).
	// Defaults to 1.
	Shards int
	// Workers is the number of OS goroutines driving the shards.
	// Defaults to 1; results never depend on it.
	Workers int
	// EngineTrace, when non-nil, arms a dedicated coordinator tracer
	// recording sim.barrier / sim.lane.drain events. It is separate
	// from the per-shard tracers (Base.Trace) precisely so arming it
	// cannot perturb shard results.
	EngineTrace *trace.Config
}

// ShardsResult is the fleet outcome.
type ShardsResult struct {
	// Results holds one Result per shard, in shard order. Results[i]
	// is byte-identical to Run with Base.Seed replaced by
	// ShardSeed(seed, i).
	Results []*Result
	// Lanes reports the executor's epoch/delivery/fired counters.
	Lanes sim.LaneStats
	// EngineTrace is the coordinator tracer (nil unless armed).
	EngineTrace *trace.Tracer
}

// ShardSeed derives shard s's root seed from the fleet seed: shard 0
// keeps the fleet seed (a 1-shard fleet is exactly Run), later shards
// get splitmix64-scrambled streams so neighboring shards share no
// correlated randomness.
func ShardSeed(seed uint64, shard int) uint64 {
	if shard == 0 {
		return seed
	}
	z := seed + uint64(shard)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		// Seed 0 means "default" to withDefaults; keep derived seeds
		// out of that collision.
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// RunShards executes Shards independent simulations concurrently on
// Workers lanes and collects their Results in shard order.
func RunShards(cfg ShardsConfig) (*ShardsResult, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Base.Policy != nil {
		return nil, fmt.Errorf("harness: RunShards requires PolicyName, not a shared Policy instance")
	}
	base := cfg.Base.withDefaults()

	// Shards exchange no mid-run mail, so the epoch width sets only
	// barrier overhead, never results: use the lanes' default.
	lanes := sim.NewLanes(cfg.Workers, 0)
	var engTracer *trace.Tracer
	if cfg.EngineTrace != nil {
		engTracer = trace.New(*cfg.EngineTrace)
		lanes.AtBarrier(func(info sim.BarrierInfo) {
			engTracer.Emit(trace.SimBarrier, info.Now, info.Epoch,
				uint64(info.Delivered), "barrier", -1, int64(info.Delivered))
			for _, shard := range info.NewlyDrained {
				engTracer.Emit(trace.SimLaneDrain, info.Now, info.Epoch,
					uint64(shard), "lane", shard, 0)
			}
		})
	}

	runs := make([]*preparedRun, cfg.Shards)
	for s := range runs {
		scfg := base
		scfg.Seed = ShardSeed(base.Seed, s)
		p, err := prepare(scfg, sim.NewEngine())
		if err != nil {
			return nil, fmt.Errorf("harness: shard %d: %w", s, err)
		}
		lanes.Attach(p.eng)
		runs[s] = p
	}
	lanes.Run()

	out := &ShardsResult{Lanes: lanes.Stats(), EngineTrace: engTracer}
	for s, p := range runs {
		res, err := p.finish()
		if err != nil {
			return nil, fmt.Errorf("harness: shard %d: %w", s, err)
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}
