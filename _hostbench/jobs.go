package main

import (
	"fmt"
	"runtime"
	"time"

	"kloc/internal/cluster"
	"kloc/internal/harness"
	"kloc/internal/kernel"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
	"kloc/internal/trace"
	"kloc/internal/workload"
)

// Job shapes. ScaleDiv 64 with a 60 ms window is the repository's
// quick experiment scale (EXPERIMENTS.md Fig 4); the fleet and shard
// windows are shorter so one job of each costs a few host seconds.
const (
	scaleDiv        = 64
	rocksdbDuration = 60 * sim.Millisecond
	shardsDuration  = 20 * sim.Millisecond
	shardCount      = 4
	fleetDuration   = 30 * sim.Millisecond
	fleetMachines   = 16
	// fleetLoad is the offered rate as a share of the calibrated fleet
	// capacity: past round-robin's knee (0.9), short of kloc routing's
	// (1.5) in BENCH_cluster.json.
	fleetLoad = 1.2
	// zeroLength is the measured window of a set-up-only run: the
	// threads retire on their first step.
	zeroLength = sim.Duration(1)
)

// job is one complete simulation answer and what it cost the host.
type job struct {
	host hostCost
	// setup is the host time spent before the first simulated op, for
	// jobs that can split it off themselves (the fleet); zero otherwise.
	setup time.Duration
	// ops counts simulated operations: measured-window ops of every
	// run in the job, or completed requests for the fleet.
	ops    float64
	answer answer
	digest string
	// shardDigests are a sharded job's per-shard digests, in order.
	shardDigests []string
	work         workCounts
	// policy is the policy layer's self time (decorated jobs only).
	policy  policyBuckets
	cluster clusterTimes
	lanes   sim.LaneStats
}

// answer is the simulated (virtual-time) result a user asked for.
type answer struct {
	OpsPerVS float64 // ops (or completed requests) per virtual second
	// MeanUs and P99us are the per-op virtual cost, or the request
	// latency for the fleet. metrics.Distribution reports quantiles of
	// large sample sets as log2 bucket bounds, so P99us moves only in
	// factors of two.
	MeanUs       float64
	P99us        float64
	Availability float64 // ops without an errno (requests completed) per attempt
	KlocSpeedup  float64 // klocs throughput over nimble's (tier-rocksdb only)
}

// clusterTimes splits a fleet job's host time by public entry point.
type clusterTimes struct {
	Calibrate, New, Run time.Duration
	Stats               cluster.Stats
}

// workers is the shard fleet's lane count: one per core, at most one
// per shard.
func workers() int { return min(runtime.NumCPU(), shardCount) }

// --- tier-rocksdb ---

func rocksdbLegs(seed uint64) []harness.RunConfig {
	var legs []harness.RunConfig
	for _, pol := range []string{"klocs", "nimble"} {
		legs = append(legs, harness.RunConfig{PolicyName: pol, Workload: "rocksdb",
			ScaleDiv: scaleDiv, Duration: rocksdbDuration, Seed: seed})
	}
	return legs
}

func rocksdbSetup(seed uint64) error {
	for _, cfg := range rocksdbLegs(seed) {
		cfg.Duration = zeroLength
		if _, err := harness.Run(cfg); err != nil {
			return err
		}
	}
	return nil
}

func runRocksDB(seed uint64, traced bool) (*job, error) {
	j := &job{}
	var res []*harness.Result
	var err error
	j.host, err = measure(func() error {
		for _, cfg := range rocksdbLegs(seed) {
			r, b, err := runHarness(cfg, traced)
			if err != nil {
				return err
			}
			res = append(res, r)
			j.policy.add(b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var digests []string
	for _, r := range res {
		d, err := j.addResult(r)
		if err != nil {
			return nil, err
		}
		digests = append(digests, d)
	}
	klocs, nimble := res[0], res[1]
	j.digest = hash(digests...)
	j.answer = answer{
		OpsPerVS:     klocs.Throughput,
		MeanUs:       klocs.OpCost.Mean() / float64(sim.Microsecond),
		P99us:        klocs.OpCost.Quantile(0.99) / float64(sim.Microsecond),
		Availability: j.work.availability(),
		KlocSpeedup:  klocs.Throughput / nimble.Throughput,
	}
	return j, nil
}

// --- shards-filebench ---

func shardsConfig(seed uint64, traced bool) harness.ShardsConfig {
	cfg := harness.ShardsConfig{
		Base: harness.RunConfig{PolicyName: "klocs", Workload: "filebench",
			ScaleDiv: scaleDiv, Duration: shardsDuration, Seed: seed},
		Shards:  shardCount,
		Workers: workers(),
	}
	if traced {
		cfg.Base.Trace = &trace.Config{}
		cfg.EngineTrace = &trace.Config{}
	}
	return cfg
}

func shardsSetup(seed uint64) error {
	cfg := shardsConfig(seed, false)
	cfg.Base.Duration = zeroLength
	_, err := harness.RunShards(cfg)
	return err
}

func runShards(seed uint64, traced bool) (*job, error) {
	j := &job{}
	var sr *harness.ShardsResult
	var costs uint64
	var err error
	j.host, err = measure(func() (err error) {
		sr, err = harness.RunShards(shardsConfig(seed, traced))
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, r := range sr.Results {
		d, err := j.addResult(r)
		if err != nil {
			return nil, err
		}
		j.shardDigests = append(j.shardDigests, d)
		j.answer.OpsPerVS += r.Throughput
		j.answer.MeanUs += r.OpCost.Mean() * float64(r.OpCost.Count())
		j.answer.P99us = max(j.answer.P99us, r.OpCost.Quantile(0.99)/float64(sim.Microsecond))
		costs += r.OpCost.Count()
	}
	j.answer.MeanUs /= float64(costs) * float64(sim.Microsecond)
	j.work.addTrace(sr.EngineTrace.Stats())
	j.answer.Availability = j.work.availability()
	j.digest = hash(j.shardDigests...)
	j.lanes = sr.Lanes
	return j, nil
}

// soloShard runs one shard of the fleet alone (a shardRuns entry),
// which RunShards promises gives the same result as under any worker
// count.
func soloShard(cfg harness.RunConfig, traced bool) (time.Duration, string, policyBuckets, error) {
	var res *harness.Result
	var b policyBuckets
	host, err := measure(func() (err error) {
		res, b, err = runHarness(cfg, traced)
		return err
	})
	if err != nil {
		return 0, "", b, err
	}
	d, err := resultDigest(res)
	return host.Wall, d, b, err
}

// --- fleet-redis ---

func fleetConfig(seed uint64) cluster.Config {
	cfg := cluster.Config{Machines: fleetMachines, Policy: "klocs", Workload: "redis",
		Route: "kloc", Arrival: "poisson", ScaleDiv: scaleDiv,
		Seed: seed, Duration: fleetDuration}.WithDefaults()
	// One crash window and one fast-tier degrade window, placed as the
	// cluster sweep places them.
	cfg.Faults = []cluster.MachineFault{
		{Machine: 1, Kind: cluster.FaultCrash, At: cfg.Duration * 4 / 10},
		{Machine: 2, Kind: cluster.FaultDegrade, At: cfg.Duration * 6 / 10},
	}
	cfg.RestartDelay = cfg.Duration / 8
	cfg.DegradeFor = cfg.Duration / 8
	return cfg
}

func runFleet(seed uint64, traced bool) (*job, error) {
	j := &job{}
	cfg := fleetConfig(seed)
	if traced {
		cfg.Trace = &trace.Config{}
	}
	var rep *cluster.Report
	var tr *trace.Tracer
	ct := &j.cluster
	var err error
	j.host, err = measure(func() error {
		t := time.Now()
		cost, err := cluster.EstimateServiceCost(cfg)
		if err != nil {
			return err
		}
		ct.Calibrate = time.Since(t)
		cfg.Rate = fleetLoad * float64(cfg.Machines*cfg.Workers) / cost.Seconds()
		t = time.Now()
		c, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		ct.New = time.Since(t)
		t = time.Now()
		rep, err = c.Run()
		ct.Run = time.Since(t)
		tr = c.Tracer()
		return err
	})
	if err != nil {
		return nil, err
	}
	s := rep.Stats
	if s.Arrivals != s.Completed+s.Failed+s.Shed {
		return nil, fmt.Errorf("fleet: arrivals %d != completed %d + failed %d + shed %d",
			s.Arrivals, s.Completed, s.Failed, s.Shed)
	}
	if s.Completed == 0 {
		return nil, fmt.Errorf("fleet: no request completed")
	}
	ct.Stats = s
	j.setup = ct.Calibrate + ct.New
	j.ops = float64(s.Completed)
	j.work.addTrace(tr.Stats())
	j.digest = reportDigest(rep)
	j.answer = answer{
		OpsPerVS:     rep.GoodputPerSec,
		MeanUs:       float64(rep.MeanLatency) / float64(sim.Microsecond),
		P99us:        float64(rep.P99) / float64(sim.Microsecond),
		Availability: rep.Availability,
	}
	return j, nil
}

// --- shared ---

// runHarness runs cfg. A traced run arms the trace plane and routes
// every policy call through the timing decorator; both are passive, so
// the Result's simulated fields match an untraced run's.
func runHarness(cfg harness.RunConfig, traced bool) (*harness.Result, policyBuckets, error) {
	var tp *timedPolicy
	if traced {
		inner, err := policy.ByName(cfg.PolicyName)
		if err != nil {
			return nil, policyBuckets{}, err
		}
		cfg.Policy, tp = wrapPolicy(inner)
		cfg.Trace = &trace.Config{}
	}
	res, err := harness.Run(cfg)
	if err != nil || tp == nil {
		return res, policyBuckets{}, err
	}
	tp.restoreKlocStats(res)
	return res, tp.b, nil
}

// addResult checks one run's result, folds its work counts into the
// job, and returns its digest.
func (j *job) addResult(r *harness.Result) (string, error) {
	if r.Ops <= 0 || r.Throughput <= 0 {
		return "", fmt.Errorf("%s/%s: no operation completed in the measured window", r.Policy, r.Workload)
	}
	j.ops += float64(r.Ops)
	j.work.add(r)
	return resultDigest(r)
}

// constructorTimes builds each run's stack the way harness.Run does,
// timing the public constructors in order: kernel.New, then the
// workload's Setup. Harness runs cannot be entered between the two, so
// this is the only place they are timed separately.
func constructorTimes(runs []harness.RunConfig) (kernelNew, wlSetup time.Duration, err error) {
	for _, cfg := range runs {
		mem := memsim.NewTwoTier(memsim.DefaultTwoTier(cfg.ScaleDiv))
		pol, err := policy.ByName(cfg.PolicyName)
		if err != nil {
			return 0, 0, err
		}
		wl, err := workload.ByName(cfg.Workload, workload.Config{ScaleDiv: cfg.ScaleDiv})
		if err != nil {
			return 0, 0, err
		}
		t := time.Now()
		k := kernel.New(sim.NewEngine(), mem, pol)
		kernelNew += time.Since(t)
		t = time.Now()
		if err := wl.Setup(k, sim.NewRNG(cfg.Seed)); err != nil {
			return 0, 0, fmt.Errorf("setup %s: %w", cfg.Workload, err)
		}
		wlSetup += time.Since(t)
	}
	return kernelNew, wlSetup, nil
}

// shardRuns lists the shard fleet's runs as solo configurations.
func shardRuns(seed uint64) []harness.RunConfig {
	var runs []harness.RunConfig
	for s := 0; s < shardCount; s++ {
		cfg := shardsConfig(seed, false).Base
		cfg.Seed = harness.ShardSeed(seed, s)
		runs = append(runs, cfg)
	}
	return runs
}
