// Command hostbench measures the simulator's host time-to-answer: how
// long one complete simulation job takes on this machine, what it
// costs in memory, and where the time goes by layer.
//
// One client submits jobs back to back (a closed loop) for --seconds.
// Every job of a run uses the same seed, so every job must produce the
// same digest of simulated results; a job that errors or disagrees
// counts as failed. With --trace 0 the last output line carries the
// end-to-end metrics, measured untraced; with --trace 1 it carries the
// per-layer metrics of a traced run (README.md lists which end-to-end
// metric each one should move).
//
// Build and run from the repository root:
//
//	bash _hostbench/run.sh --workload tier-rocksdb --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"kloc/internal/harness"
)

// jobShape is one benchmark workload: how to run, set up and time its jobs.
type jobShape struct {
	name string
	run  func(seed uint64, traced bool) (*job, error)
	// setup performs one set-up-only pass through the job's entry
	// point (zero-length measured window). Nil when every job times
	// its own set-up.
	setup func(seed uint64) error
	// runs lists the job's harness runs for constructor timing; nil
	// when the constructors are not reachable from outside.
	runs func(seed uint64) []harness.RunConfig
	// sharded jobs get the lane-contract check and the solo-shard
	// span in their traced run.
	sharded bool
}

var workloads = []jobShape{
	{name: "tier-rocksdb", run: runRocksDB, setup: rocksdbSetup, runs: rocksdbLegs},
	{name: "fleet-redis", run: runFleet},
	{name: "shards-filebench", run: runShards, setup: shardsSetup, runs: shardRuns, sharded: true},
}

const (
	// setupRepeats set-up passes give setup_s its median.
	setupRepeats = 5
	// minJobs bounds a loop from below however long a job takes.
	minJobs = 3
	mb      = 1e6
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "job shape: tier-rocksdb, fleet-redis or shards-filebench")
	seed := fl.Uint64("seed", 1, "input seed; every job of the run simulates from it")
	seconds := fl.Int("seconds", 10, "how long the closed loop submits jobs")
	traced := fl.Int("trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *jobShape
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "hostbench: need --workload tier-rocksdb|fleet-redis|shards-filebench, --seconds >= 1, --trace 0|1")
		return 2
	}
	host, _ := json.Marshal(map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"shard_workers": workers(), "go": runtime.Version(),
		"workload": w.name, "seed": *seed, "trace": *traced,
	})
	fmt.Fprintf(stdout, "host %s\n", host)

	// Seed 0 would select the harness default; shift so every --seed
	// is a distinct simulation seed.
	b := &bench{w: w, seed: *seed + 1, log: stdout}
	budget := time.Duration(*seconds) * time.Second
	var err error
	if *traced == 1 {
		err = b.perLayer(budget)
	} else {
		err = b.endToEnd(budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.name, err)
		return 1
	}
	out, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted,
		Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// bench is one benchmark run.
type bench struct {
	w    *jobShape
	seed uint64
	log  io.Writer

	attempted, failed int
	// first is the run's first job digest; every later job must match.
	first   string
	metrics map[string]metric
}

func (b *bench) set(name, unit string, v float64) {
	if b.metrics == nil {
		b.metrics = make(map[string]metric)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// loop submits jobs back to back until budget has passed and at least
// minJobs were tried, and returns the ones that passed their checks.
func (b *bench) loop(traced bool, budget time.Duration) []*job {
	var ok []*job
	start := time.Now()
	for i := 0; i < minJobs || time.Since(start) < budget; i++ {
		b.attempted++
		j, err := b.w.run(b.seed, traced)
		if err == nil && b.first != "" && j.digest != b.first {
			err = fmt.Errorf("digest %s differs from the run's first job %s", j.digest, b.first)
		}
		if err != nil {
			b.failed++
			fmt.Fprintf(b.log, "job %d traced=%t FAILED: %v\n", b.attempted, traced, err)
			continue
		}
		if b.first == "" {
			b.first = j.digest
		}
		fmt.Fprintf(b.log, "job %d traced=%t wall=%.4fs cpu=%.4fs setup=%.4fs ops=%.0f peak_heap=%.1fMB digest=%s\n",
			b.attempted, traced, j.host.Wall.Seconds(), j.host.CPU, j.setup.Seconds(), j.ops,
			float64(j.host.PeakHeap)/mb, j.digest)
		ok = append(ok, j)
	}
	return ok
}

// setupPasses times setupRepeats set-up-only passes, or returns nil
// when the workload's jobs time their own set-up.
func (b *bench) setupPasses() ([]float64, error) {
	if b.w.setup == nil {
		return nil, nil
	}
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		c, err := measure(func() error { return b.w.setup(b.seed) })
		if err != nil {
			return nil, fmt.Errorf("set-up pass: %w", err)
		}
		out = append(out, c.Wall.Seconds())
	}
	return out, nil
}

// setupSecond is the run's median set-up time: from the set-up passes,
// or from each job's own set-up.
func setupSecond(passes []float64, jobs []*job) float64 {
	if passes != nil {
		return median(passes)
	}
	return medianOf(jobs, func(j *job) float64 { return j.setup.Seconds() })
}

var errAllFailed = errors.New("no job passed its checks")

// endToEnd measures untraced jobs and sets the end-to-end metrics.
func (b *bench) endToEnd(budget time.Duration) error {
	passes, err := b.setupPasses()
	if err != nil {
		return err
	}
	jobs := b.loop(false, budget)
	if len(jobs) == 0 {
		return errAllFailed
	}
	setup := setupSecond(passes, jobs)
	b.set("wall_s", "s", medianOf(jobs, func(j *job) float64 { return j.host.Wall.Seconds() }))
	b.set("setup_s", "s", setup)
	b.set("sim_ops_per_host_s", "1/s", medianOf(jobs, func(j *job) float64 {
		s := setup
		if passes == nil {
			s = j.setup.Seconds()
		}
		return j.ops / (j.host.Wall.Seconds() - s)
	}))
	b.set("peak_heap_mb", "MB", medianOf(jobs, func(j *job) float64 { return float64(j.host.PeakHeap) / mb }))
	a := jobs[0].answer
	b.set("sim_ops_per_vs", "1/s", a.OpsPerVS)
	b.set("sim_mean_latency_us", "us", a.MeanUs)
	b.set("sim_availability", "ratio", a.Availability)
	if a.KlocSpeedup > 0 {
		// Fig 4 quick mode in EXPERIMENTS.md: rocksdb klocs 1.78 and
		// nimble 1.10 over all-slow, i.e. 1.62x klocs over nimble.
		fmt.Fprintf(b.log, "kloc_speedup %.4f (klocs/nimble sim throughput); EXPERIMENTS.md Fig 4 quick seed 42: 1.78/1.10 = 1.62; "+
			"the model is unvalidated beyond that figure\n", a.KlocSpeedup)
	}
	return nil
}

// perLayer runs untraced jobs (the baseline), then traced jobs, and
// sets the per-layer metrics. Host-wide metrics come from the untraced
// jobs; policy self time and trace counts need the traced ones.
func (b *bench) perLayer(budget time.Duration) error {
	passes, err := b.setupPasses()
	if err != nil {
		return err
	}
	plain := b.loop(false, budget/2)
	traced := b.loop(true, budget/2)
	if len(plain) == 0 || len(traced) == 0 {
		return errAllFailed
	}
	setup := setupSecond(passes, plain)
	wall := medianOf(plain, func(j *job) float64 { return j.host.Wall.Seconds() })
	for _, name := range perLayerNames() {
		b.set(name.name, name.unit, 0)
	}
	set := func(name string, v float64) { b.set(name, b.metrics[name].Unit, v) }

	set("trace.overhead_s", medianOf(traced, func(j *job) float64 { return j.host.Wall.Seconds() })-wall)
	set("host.cores_busy", medianOf(plain, func(j *job) float64 { return j.host.CPU / j.host.Wall.Seconds() }))
	set("go.gc_cpu_frac", medianOf(plain, func(j *job) float64 { return j.host.GCCPU / j.host.CPU }))
	set("go.alloc_mb_per_job", medianOf(plain, func(j *job) float64 { return float64(j.host.AllocBytes) / mb }))

	counts := map[string]float64{}
	traced[0].work.layers(counts)
	for k, v := range counts {
		set(k, v)
	}
	set("kloc_speedup", traced[0].answer.KlocSpeedup)
	set("sim_p99_us", traced[0].answer.P99us)

	pol := medianPolicy(traced)
	base := wall
	if b.w.sharded {
		// Solo runs give the shard fleet's serial host time, the lane
		// span, and (decorated) its policy self time.
		var span float64
		base, span, pol = b.lanes(plain[0].shardDigests)
		set("sim.lanes.span_s", span)
		set("sim.lanes.efficiency", span/wall)
	}
	self := pol.self().Seconds()
	for _, x := range []struct {
		name string
		b    bucket
	}{{"inode_open", pol.InodeOpen}, {"inode_other", pol.InodeOther}, {"object", pol.Object},
		{"page", pol.Page}, {"place", pol.Place}, {"tick", pol.Tick}} {
		set("policy."+x.name+"_s", x.b.Self.Seconds())
		set("policy."+x.name+"_calls", float64(x.b.Calls))
	}
	set("policy.share", self/base)
	set("harness.run_self_s", base-setup-self)

	if b.w.runs != nil {
		var kn, ws []float64
		for i := 0; i < setupRepeats; i++ {
			k, s, err := constructorTimes(b.w.runs(b.seed))
			if err != nil {
				return err
			}
			kn, ws = append(kn, k.Seconds()), append(ws, s.Seconds())
		}
		set("kernel.new_s", median(kn))
		set("workload.setup_s", median(ws))
	}

	if c := plain[0].cluster.Stats; c.Arrivals > 0 {
		calib := medianOf(plain, func(j *job) float64 { return j.cluster.Calibrate.Seconds() })
		build := medianOf(plain, func(j *job) float64 { return j.cluster.New.Seconds() })
		run := medianOf(plain, func(j *job) float64 { return j.cluster.Run.Seconds() })
		// Calibration builds one machine, then serves 512 probes; take
		// one machine's share of cluster.New off before dividing.
		step := (calib - build/fleetMachines) / 512 * 1e6
		set("cluster.new_s", build)
		set("cluster.calibrate_s", calib)
		set("cluster.run_s", run)
		set("cluster.machine_step_us", step)
		set("cluster.lb_overhead_us", run/float64(c.Completed)*1e6-step)
		set("cluster.retries", float64(c.Retries))
		set("cluster.hedge_win_frac", ratio(c.HedgeWins, c.Hedges))
		set("cluster.wasted_frac", ratio(c.WastedWork, c.HotServed+c.ColdServed))
		set("cluster.hot_frac", ratio(c.HotServed, c.HotServed+c.ColdServed))
		set("cluster.shed", float64(c.Shed))
		set("cluster.breaker_opens", float64(c.BreakerOpens))
	}

	if l := plain[0].lanes; len(l.Fired) > 0 {
		var total, most uint64
		for _, f := range l.Fired {
			total += f
			most = max(most, f)
		}
		set("sim.lanes.epochs", float64(l.Epochs))
		set("sim.lanes.fired", float64(total))
		set("sim.lanes.fired_imbalance", float64(most)/(float64(total)/float64(len(l.Fired))))
	}
	return nil
}

// lanes checks the lane contract: every shard's digest under RunShards
// (want) equals its solo harness.Run digest, decorated or not. It
// returns the untraced solo runs' summed host time, the busiest
// worker's share of it under the shard % workers assignment, and the
// decorated solo runs' policy buckets.
func (b *bench) lanes(want []string) (serial, span float64, pol policyBuckets) {
	spans := make([]float64, workers())
	for s, cfg := range shardRuns(b.seed) {
		for _, decorated := range []bool{false, true} {
			b.attempted++
			took, digest, pb, err := soloShard(cfg, decorated)
			if err == nil && digest != want[s] {
				err = fmt.Errorf("lane contract: shard %d solo digest %s, under RunShards %s", s, digest, want[s])
			}
			if err != nil {
				b.failed++
				fmt.Fprintf(b.log, "solo shard %d decorated=%t FAILED: %v\n", s, decorated, err)
				continue
			}
			fmt.Fprintf(b.log, "solo shard %d decorated=%t wall=%.4fs digest=%s\n", s, decorated, took.Seconds(), digest)
			if decorated {
				pol.add(pb)
			} else {
				spans[s%len(spans)] += took.Seconds()
				serial += took.Seconds()
			}
		}
	}
	for _, s := range spans {
		span = max(span, s)
	}
	return serial, span, pol
}

func medianPolicy(jobs []*job) policyBuckets {
	out := jobs[0].policy
	for i, dst := range out.all() {
		*dst = bucket{Calls: dst.Calls, Self: time.Duration(medianOf(jobs, func(j *job) float64 {
			return float64(j.policy.all()[i].Self)
		}))}
	}
	return out
}

func medianOf(jobs []*job, f func(*job) float64) float64 {
	v := make([]float64, len(jobs))
	for i, j := range jobs {
		v[i] = f(j)
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
