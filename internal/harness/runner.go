// Package harness drives measured simulation runs and regenerates the
// paper's tables and figures (DESIGN.md §4 maps each experiment to its
// function here).
//
// Run executes one measured run from a RunConfig — platform, policy,
// workload, seed, duration, plus the optional planes (Fault, Pressure,
// Trace) — with a warmup phase so policies are judged at steady state,
// and returns a Result carrying the measured-window counters every
// table is built from. Experiments maps the paper's figure/table names
// to batch drivers over Run; Options trades fidelity for wall time
// (quick mode). Determinism is inherited from the substrate: the same
// RunConfig always yields the same Result.
package harness

import (
	"fmt"

	"kloc/internal/alloc"
	"kloc/internal/fault"
	"kloc/internal/fs"
	"kloc/internal/kernel"
	"kloc/internal/machine"
	"kloc/internal/memsim"
	"kloc/internal/metrics"
	"kloc/internal/netsim"
	"kloc/internal/policy"
	"kloc/internal/pressure"
	"kloc/internal/sim"
	"kloc/internal/trace"
	"kloc/internal/workload"
)

// Platform selects the Table-4 machine.
type Platform int

// Platforms.
const (
	TwoTier Platform = iota
	Optane
)

// RunConfig describes one measured run.
type RunConfig struct {
	Platform Platform
	// TwoTier / Optane override the default (scaled) platform configs.
	TwoTier *memsim.TwoTierConfig
	Optane  *memsim.OptaneConfig
	// ScaleDiv applies when no explicit platform config is given, and
	// always scales the workload.
	ScaleDiv int

	PolicyName string
	// Policy overrides PolicyName with a pre-built policy instance
	// (used by experiments that need non-catalog configurations, e.g.
	// the Fig 5c group sweep and the ablation benches).
	Policy kernel.Policy

	Workload string
	WLConfig workload.Config

	// KlocPrefetch enables the KLOC-aware readahead integration (§4.4).
	KlocPrefetch bool
	// ReadaheadWindow overrides the FS readahead window (-1 disables,
	// 0 keeps the default).
	ReadaheadWindow int

	Seed uint64
	// MoveTaskAtFrac, on the Optane platform, moves the task to socket
	// 1 after this fraction of the measured duration (the §6.2
	// interference scenario). 0 disables.
	MoveTaskAtFrac float64

	// Duration is the measured virtual run length; throughput is ops
	// completed within it. Default 400 ms of virtual time. The
	// workload's TotalOps acts as a safety cap.
	Duration sim.Duration
	// Warmup runs the workload (and daemons) before measurement begins
	// so policies are judged at steady state. Default Duration/2.
	Warmup sim.Duration

	// Fault arms a deterministic fault-injection plane for the run.
	// The plane attaches after workload setup, so setup is never
	// perturbed and a rate-0 plane leaves the run bit-identical to an
	// unfaulted one. Nil runs without injection.
	Fault *fault.Config

	// FaultSchedule arms an exact-time fault schedule (the chaos
	// engine's replayable form) with offsets rebased onto the measured
	// window's start, so the same schedule means the same thing across
	// runs whose setup phases differ. Mutually exclusive with Fault.
	FaultSchedule *fault.Schedule

	// CrashReplay runs the crash-consistency oracle after the measured
	// window: crash the FS, check the in-memory image tore down clean,
	// replay the journal, and check the durable image was rebuilt
	// exactly. The verdict lands on Result.CrashViolation; the run's
	// other counters are collected before the crash and are unaffected.
	CrashReplay bool

	// Pressure configures the memory-pressure plane: watermarks on the
	// fast node (enabling the emergency-reserve gate) and, with a
	// nonzero KswapdPeriod, the background reclaimer. Applied after
	// workload setup, like Fault. Nil leaves watermarks off — direct
	// reclaim through the shrinker registry still works; only the
	// reserve gate and kswapd stay disabled.
	Pressure *pressure.Config

	// Trace arms the tracepoint-analog observability plane for the run
	// (OBSERVABILITY.md). The tracer attaches before workload setup —
	// it is strictly passive, so setup stays bit-identical — and is
	// returned on Result.Trace for export. Nil runs without tracing.
	Trace *trace.Config

	// Sanitize arms the KASAN/kmemleak-analog runtime sanitizer for the
	// run. Like the tracer it attaches before setup and is strictly
	// passive — a sanitized run is bit-identical to an unsanitized one
	// at the same seed. The end-of-run report (double frees,
	// use-after-free accesses, leaked objects grouped by KLOC context)
	// is returned on Result.Sanitize.
	Sanitize bool

	// ExactAccounting runs the whole stack — memory, kernel, KLOC
	// registry and tracer — on the exact per-event reference
	// accounting path instead of the fast path (DESIGN.md §13). The
	// zero value is the fast path every production run takes; the
	// reference exists for the invisibility test and the perf sweep's
	// baseline row. Both yield byte-identical simulation results —
	// this knob trades only bookkeeping cost.
	ExactAccounting bool
}

// Result is one run's outcome.
type Result struct {
	Policy, Workload string
	Ops              int
	VirtualTime      sim.Duration
	// Throughput in operations per virtual second.
	Throughput float64

	Mem      memsim.Stats
	AppRefs  uint64
	KernRefs uint64

	// Allocation counts by class (pages), summed over nodes, and the
	// slow/remote-node slice of them. These are measured-window deltas;
	// TotalAllocsByClass covers the whole run including setup (the
	// footprint-characterization view of Fig 2).
	AllocsByClass      [6]uint64
	SlowAllocsByClass  [6]uint64
	TotalAllocsByClass [6]uint64

	// Lifetime means.
	AppLifetime, SlabLifetime, CacheLifetime sim.Duration

	// KlocMetadataBytes is nonzero for KLOC policies (Table 6).
	KlocMetadataBytes int

	// ReadaheadIssued/Hits for the prefetch study.
	ReadaheadIssued, ReadaheadHits uint64

	// FastPathHitRate for the §4.3 ablation (KLOC policies).
	FastPathHitRate float64

	// FS / Net expose subsystem stats for the characterization tables.
	FS  fs.Stats
	Net netsim.Stats
	// DevBusy is the storage device's total busy horizon (I/O pressure).
	DevBusy sim.Duration
	// OpCost summarizes per-operation virtual costs.
	OpCost metrics.Distribution

	// Fault-injection outcomes (zero when no plane was armed).
	// FaultsInjected is the plane's total injection count; FaultTrace
	// is its deterministic, replayable record (one line per injection).
	FaultsInjected uint64
	FaultTrace     string
	// DegradedOps counts workload steps that absorbed an errno-style
	// failure and continued instead of aborting the run.
	DegradedOps uint64
	// IORetries / IOHardFailures are the block layer's re-drive and
	// retry-budget-exhaustion counts.
	IORetries      uint64
	IOHardFailures uint64

	// Memory-pressure outcomes (nonzero only when the run hit
	// pressure). Pressure mirrors the plane's counters — direct-reclaim
	// invocations and pages, kswapd wakeups and pages, OOM evictions
	// and spilled pages, aborted reclaim rounds. ReserveDips counts
	// atomic allocations that drew on the watermark emergency reserve,
	// and ShrinkerStats breaks reclaimed objects/pages down per
	// registered shrinker in scan order.
	Pressure      pressure.Stats
	ReserveDips   uint64
	ShrinkerStats []pressure.ShrinkerStat

	// Trace is the run's armed tracer (nil when tracing was off);
	// callers export it via WriteText / WriteChrome. TraceStats
	// summarizes per-event-name totals and per-KLOC-context activity
	// over virtual-time windows; it covers every emitted event even
	// when the ring buffer dropped some.
	Trace      *trace.Tracer
	TraceStats trace.Stats

	// Perf reports the run's hot-path accounting meters (DESIGN.md
	// §13): deterministic evidence of how much bookkeeping the run's
	// accounting path actually did — accumulator adds vs committed net
	// deltas, frame/ctx pool recycling, trace summary commits (the
	// reuse and commit meters stay zero on the exact reference). Purely
	// informational; both paths produce identical simulation results.
	Perf PerfMeters

	// Sanitize is the runtime sanitizer's end-of-run report (nil when
	// RunConfig.Sanitize was off).
	Sanitize *alloc.SanReport

	// CrashReplayed is set when the CrashReplay oracle ran;
	// CrashViolation names the first violated crash-consistency
	// invariant (empty means the crash/replay cycle was clean).
	CrashReplayed  bool
	CrashViolation string
}

func (c RunConfig) withDefaults() RunConfig {
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 64
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Duration <= 0 {
		c.Duration = 400 * sim.Millisecond
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Duration / 2
	}
	c.WLConfig.ScaleDiv = c.ScaleDiv
	return c
}

func (c RunConfig) buildMemory() *memsim.Memory {
	switch c.Platform {
	case Optane:
		cfg := memsim.DefaultOptane(c.ScaleDiv)
		if c.Optane != nil {
			cfg = *c.Optane
		}
		return memsim.NewOptane(cfg)
	default:
		cfg := memsim.DefaultTwoTier(c.ScaleDiv)
		if c.TwoTier != nil {
			cfg = *c.TwoTier
		}
		if c.PolicyName == "all-fast" {
			// The ideal bound: fast memory big enough for everything.
			cfg.FastPages = cfg.SlowPages
		}
		return memsim.NewTwoTier(cfg)
	}
}

// Run executes one measured simulation run.
func Run(cfg RunConfig) (*Result, error) {
	p, err := prepare(cfg, sim.NewEngine())
	if err != nil {
		return nil, err
	}
	p.eng.Run()
	return p.finish()
}

// preparedRun is one shard's fully-scheduled simulation: everything
// Run does before driving the engine, captured so RunShards can build
// several shards and drive them together under sim.Lanes. All fields
// (and the state the scheduled closures mutate) belong to the one
// goroutine driving p.eng — lane-confined under the sharded plan.
type preparedRun struct {
	cfg   RunConfig
	eng   *sim.Engine
	m     *machine.Machine
	plane *fault.Plane
	start sim.Time

	threads     int
	done        int
	globalOps   int
	degradedOps uint64
	stepErr     error
	opCosts     metrics.Distribution
	base        statSnapshot
}

// prepare builds the kernel stack for cfg on eng and schedules the
// workload threads, leaving the engine ready to Run. It performs the
// setup-phase warp (RunUntil the storage horizon) on the calling
// goroutine, so it is init-phase: call it before the lanes start.
func prepare(cfg RunConfig, eng *sim.Engine) (*preparedRun, error) {
	cfg = cfg.withDefaults()
	if cfg.Fault != nil && cfg.FaultSchedule != nil {
		return nil, fmt.Errorf("harness: Fault and FaultSchedule are mutually exclusive: %w", fault.EINVAL)
	}
	mem := cfg.buildMemory()
	mem.SetExact(cfg.ExactAccounting)
	pol := cfg.Policy
	if pol == nil {
		var err error
		pol, err = policy.ByName(cfg.PolicyName)
		if err != nil {
			return nil, err
		}
	}
	root := sim.NewRNG(cfg.Seed)
	m, err := machine.New(eng, mem, pol, cfg.Workload, cfg.WLConfig, root, func(k *kernel.Kernel) {
		k.FS.KlocAwareReadahead = cfg.KlocPrefetch
		if cfg.ReadaheadWindow != 0 {
			w := cfg.ReadaheadWindow
			if w < 0 {
				w = 0
			}
			k.FS.ReadaheadWindow = w
		}
		// Attach the tracer before setup: the plane is strictly passive,
		// so a traced run is bit-identical to an untraced one, and
		// setup-phase allocations (the long-lived object population)
		// appear in the trace.
		if cfg.Trace != nil {
			tc := *cfg.Trace
			tc.Exact = cfg.ExactAccounting
			k.AttachTracer(trace.New(tc))
		}
		// The sanitizer attaches before setup for the same reason: it is
		// strictly passive, and setup-phase allocations must be tracked
		// or the teardown leak scan would miss the long-lived population.
		if cfg.Sanitize {
			k.AttachSanitizer(alloc.NewSanitizer())
		}
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	k, wl := m.K, m.WL
	machine.WarpPastSetup(eng, m)
	setupEnd := eng.Now()
	start := setupEnd.Add(cfg.Warmup)
	// Arm the fault plane only now: setup ran clean, and the plane's
	// per-point RNG streams start from the configured seed regardless of
	// how long setup took, so traces are comparable across policies.
	var plane *fault.Plane
	if cfg.Fault != nil {
		plane = fault.NewPlane(*cfg.Fault)
	} else if cfg.FaultSchedule != nil {
		plane = fault.NewPlane(cfg.FaultSchedule.Config(cfg.Seed, -1, start))
	}
	if plane != nil {
		k.InjectFaults(plane)
	}
	// Configure pressure before Start so kswapd is armed when the
	// daemons launch. Setup ran without the reserve gate for the same
	// reason the fault plane attaches late: a configured run's setup is
	// bit-identical to an unconfigured one's.
	if cfg.Pressure != nil {
		k.Pressure.Configure(*cfg.Pressure)
	}
	k.Start()

	p := &preparedRun{
		cfg: cfg, eng: eng, m: m, plane: plane, start: start,
		threads: wl.Threads(),
	}
	perThread := wl.TotalOps() / p.threads
	if perThread < 1 {
		perThread = 1
	}
	deadline := start.Add(cfg.Duration)
	if cfg.Platform == Optane && cfg.MoveTaskAtFrac > 0 {
		moveAt := start.Add(sim.Duration(cfg.MoveTaskAtFrac * float64(cfg.Duration)))
		eng.Schedule(moveAt, func(*sim.Engine) { k.SetTaskSocket(1) })
	}

	eng.Schedule(start, func(*sim.Engine) { p.base = snapshot(k) })
	for t := 0; t < p.threads; t++ {
		t := t
		rng := root.Fork()
		remaining := perThread
		var step func(*sim.Engine)
		finish := func(e *sim.Engine) {
			p.done++
			if p.done == p.threads {
				// All threads retired: stop the policy daemons too.
				e.Halt()
			}
		}
		step = func(e *sim.Engine) {
			if p.stepErr != nil || remaining == 0 || e.Now() >= deadline {
				finish(e)
				return
			}
			remaining--
			if e.Now() >= start {
				p.globalOps++
			}
			cost, err := m.Op(t, rng)
			if err != nil {
				if (plane != nil || cfg.Pressure != nil) && fault.IsErrno(err) {
					// Graceful degradation: an injected (or induced)
					// errno fails this operation, not the run. The op
					// still pays the virtual time it consumed.
					p.degradedOps++
				} else {
					p.stepErr = fmt.Errorf("harness: %s thread %d: %w", wl.Name(), t, err)
					finish(e)
					return
				}
			}
			if e.Now() >= start {
				p.opCosts.Observe(float64(cost))
			}
			e.After(cost, step)
		}
		// Stagger thread starts to avoid artificial convoys.
		eng.Schedule(setupEnd.Add(sim.Duration(t)), step)
	}
	return p, nil
}

// finish collects the run's Result after the engine drained. It runs
// on the coordinator once the shard's lane is quiescent (barrier- or
// init-phase).
func (p *preparedRun) finish() (*Result, error) {
	if p.stepErr != nil {
		return nil, p.stepErr
	}
	if p.done != p.threads {
		return nil, fmt.Errorf("harness: %d/%d threads finished", p.done, p.threads)
	}
	cfg, k := p.cfg, p.m.K
	res := collect(cfg, k, k.Policy, p.m.WL, p.globalOps, p.start, p.base)
	res.OpCost = p.opCosts
	res.DegradedOps = p.degradedOps
	if p.plane != nil {
		res.FaultsInjected = p.plane.Injected()
		res.FaultTrace = p.plane.TraceString()
	}
	res.IORetries = k.FS.MQ.Retries
	res.IOHardFailures = k.FS.MQ.HardFailures
	res.Pressure = k.Pressure.Stats
	res.ReserveDips = k.Mem.Stats.ReserveDips
	res.ShrinkerStats = k.Pressure.ShrinkerStats()
	res.Trace = k.Trace
	res.TraceStats = k.Trace.Stats()
	res.Perf = PerfMeters{Mem: k.Mem.PerfCounters(), TraceCommits: k.Trace.SummaryCommits()}
	res.Perf.CtxFresh, res.Perf.CtxReused = k.CtxPoolCounters()
	res.Sanitize = k.SanitizeReport(p.eng.Now())
	if cfg.CrashReplay {
		res.CrashReplayed = true
		res.CrashViolation = crashReplayCheck(k)
	}
	return res, nil
}

// PerfMeters are one run's hot-path accounting meters (DESIGN.md §13):
// Mem carries the per-CPU accumulator and frame-pool counters,
// TraceCommits the tracer's batched summary commits (zero when tracing
// was off), and CtxFresh/CtxReused the op-context pool's behavior.
// All are deterministic at a given seed and accounting path.
type PerfMeters struct {
	Mem                 memsim.PerfCounters
	TraceCommits        uint64
	CtxFresh, CtxReused uint64
}

// crashReplayCheck crashes the FS and replays its journal, returning
// the first violated crash-consistency invariant (empty when clean).
// The fault plane is disarmed first: leftover scheduled injections
// must not fire inside the recovery path the oracle is judging.
func crashReplayCheck(k *kernel.Kernel) string {
	k.InjectFaults(nil)
	ctx := k.NewCtx(0)
	k.FS.Crash(ctx)
	if n := k.FS.Inodes(); n != 0 {
		return fmt.Sprintf("post-crash: %d in-memory inodes survived the teardown", n)
	}
	if n := k.FS.JournalPending(); n != 0 {
		return fmt.Sprintf("post-crash: %d uncommitted journal records survived", n)
	}
	if err := k.FS.Replay(ctx); err != nil {
		return fmt.Sprintf("replay failed: %v", err)
	}
	if n := k.FS.JournalPending(); n != 0 {
		return fmt.Sprintf("post-replay: %d journal records left pending", n)
	}
	if got, want := k.FS.Inodes(), k.FS.DurableInodes(); got != want {
		return fmt.Sprintf("post-replay: %d inodes materialized, durable image holds %d", got, want)
	}
	return ""
}

// statSnapshot captures the counters that are reported as
// measured-window deltas.
type statSnapshot struct {
	refs         [6]uint64
	allocsByNode map[memsim.NodeID][6]uint64
	migrated     uint64
	demotions    uint64
	promotions   uint64
	l4Hits       uint64
	l4Misses     uint64
	raIssued     uint64
	raHits       uint64
}

func snapshot(k *kernel.Kernel) statSnapshot {
	// Batched/indexed accounting lags the shared Stats between flushes;
	// materialize before reading so measured-window deltas are exact.
	k.Mem.SyncStats()
	st := statSnapshot{
		refs:         k.Mem.Stats.Refs,
		allocsByNode: make(map[memsim.NodeID][6]uint64),
		migrated:     k.Mem.Stats.MigratedPages,
		demotions:    k.Mem.Stats.Demotions,
		promotions:   k.Mem.Stats.Promotions,
		l4Hits:       k.Mem.Stats.L4Hits,
		l4Misses:     k.Mem.Stats.L4Misses,
		raIssued:     k.FS.Stats.ReadaheadIssued,
		raHits:       k.FS.Stats.ReadaheadHits,
	}
	for node, counts := range k.Mem.Stats.AllocsByClassNode {
		st.allocsByNode[node] = *counts
	}
	return st
}

func collect(cfg RunConfig, k *kernel.Kernel, pol kernel.Policy, wl workload.Workload, ops int, start sim.Time, base statSnapshot) *Result {
	mem := k.Mem
	mem.SyncStats()
	res := &Result{
		Policy:      pol.Name(),
		Workload:    wl.Name(),
		Ops:         ops,
		VirtualTime: k.Eng.Now().Sub(start),
		Mem:         mem.Stats,
	}
	if res.VirtualTime > 0 {
		res.Throughput = float64(ops) / res.VirtualTime.Seconds()
	}
	res.Mem.MigratedPages -= base.migrated
	res.Mem.Demotions -= base.demotions
	res.Mem.Promotions -= base.promotions
	res.Mem.L4Hits -= base.l4Hits
	res.Mem.L4Misses -= base.l4Misses
	slow := slowNodeOf(cfg)
	for class := 0; class < 6; class++ {
		c := memsim.Class(class)
		refs := mem.Stats.Refs[class] - base.refs[class]
		if c.Kernel() {
			res.KernRefs += refs
		} else if c == memsim.ClassApp {
			res.AppRefs += refs
		}
		for node, counts := range mem.Stats.AllocsByClassNode {
			delta := counts[class] - base.allocsByNode[node][class]
			res.AllocsByClass[class] += delta
			res.TotalAllocsByClass[class] += counts[class]
			if slow == node {
				res.SlowAllocsByClass[class] += delta
			}
		}
	}
	res.AppLifetime = k.Lifetimes.MeanLifetime("app")
	res.SlabLifetime = k.Lifetimes.MeanLifetime("slab")
	res.CacheLifetime = k.Lifetimes.MeanLifetime("cache")
	res.ReadaheadIssued = k.FS.Stats.ReadaheadIssued - base.raIssued
	res.ReadaheadHits = k.FS.Stats.ReadaheadHits - base.raHits
	res.FS = k.FS.Stats
	res.Net = k.Net.Stats
	res.DevBusy = sim.Duration(k.FS.MQ.Dev.BusyUntil())
	if kp, ok := pol.(*policy.KLOCs); ok {
		res.KlocMetadataBytes = kp.MetadataBytes()
		res.FastPathHitRate = kp.Reg.FastPathHitRate()
	}
	return res
}

// slowNodeOf identifies the "slow"/remote node for allocation slicing:
// the slow tier on two-tier, socket 1 on Optane (the socket the task
// does not start on).
func slowNodeOf(cfg RunConfig) memsim.NodeID {
	if cfg.Platform == Optane {
		return memsim.Socket1Node
	}
	return memsim.SlowNode
}
