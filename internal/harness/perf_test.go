package harness

import (
	"strings"
	"testing"

	"kloc/internal/sim"
	"kloc/internal/trace"
)

func perfTestConfig(policy, workload string, exact bool) RunConfig {
	return RunConfig{
		PolicyName:      policy,
		Workload:        workload,
		Duration:        20 * sim.Millisecond,
		ExactAccounting: exact,
		Trace:           &trace.Config{},
	}
}

// TestAccountingModesAreInvisible: the fast accounting path must be
// pure bookkeeping — a run on the exact per-event reference (per-event
// counters, no recycling, map indices) and a run on the default fast
// path at the same seed must agree on every simulation result, down to
// byte-identical trace exports. This is the contract that lets the
// fast path be the default (DESIGN.md §13). The inputs cover the
// knode walk and migration (rocksdb under klocs) as well as netsim
// sockets and the LRU-scan policy (redis under nimble).
func TestAccountingModesAreInvisible(t *testing.T) {
	for _, in := range []struct{ policy, workload string }{
		{"klocs", "rocksdb"},
		{"nimble", "redis"},
	} {
		t.Run(in.policy+"/"+in.workload, func(t *testing.T) {
			exact, err := Run(perfTestConfig(in.policy, in.workload, true))
			if err != nil {
				t.Fatal(err)
			}
			fast, err := Run(perfTestConfig(in.policy, in.workload, false))
			if err != nil {
				t.Fatal(err)
			}
			if exact.Ops != fast.Ops || exact.VirtualTime != fast.VirtualTime ||
				exact.Throughput != fast.Throughput {
				t.Fatalf("accounting path perturbed the run: ops %d vs %d, vt %v vs %v",
					exact.Ops, fast.Ops, exact.VirtualTime, fast.VirtualTime)
			}
			if exact.Mem.Refs != fast.Mem.Refs || exact.Mem.MigratedPages != fast.Mem.MigratedPages ||
				exact.Mem.Demotions != fast.Mem.Demotions || exact.Mem.Promotions != fast.Mem.Promotions {
				t.Fatalf("accounting path perturbed memory stats:\n%+v\n%+v", exact.Mem, fast.Mem)
			}
			if exact.FS != fast.FS {
				t.Fatalf("accounting path perturbed FS stats:\n%+v\n%+v", exact.FS, fast.FS)
			}
			if exact.Trace.Emitted() == 0 {
				t.Fatal("traced run emitted no events")
			}
			if exact.Trace.TextString() != fast.Trace.TextString() {
				t.Fatal("text trace differs between exact and fast accounting")
			}
			var je, jf strings.Builder
			if err := exact.Trace.WriteChrome(&je); err != nil {
				t.Fatal(err)
			}
			if err := fast.Trace.WriteChrome(&jf); err != nil {
				t.Fatal(err)
			}
			if je.String() != jf.String() {
				t.Fatal("chrome trace differs between exact and fast accounting")
			}
		})
	}
}

// TestPerfMetersReportBookkeeping: the default path must actually take
// the fast paths — recycled ctxs and frames, batched commits — and the
// exact reference must not, so the perf meters are evidence, not
// noise. The tracer follows its run's path: the exact run commits every
// event through, the fast run commits in run lengths.
func TestPerfMetersReportBookkeeping(t *testing.T) {
	exact, err := Run(perfTestConfig("klocs", "rocksdb", true))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(perfTestConfig("klocs", "rocksdb", false))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Perf.CtxReused == 0 {
		t.Fatal("fast path reused no ctx records")
	}
	if fast.Perf.Mem.FramesReused == 0 {
		t.Fatal("fast path reused no frames")
	}
	if fast.Perf.Mem.AccCommits == 0 || fast.Perf.Mem.AccAdds == 0 {
		t.Fatal("fast path committed no batched accumulator deltas")
	}
	if fast.Perf.TraceCommits == 0 {
		t.Fatal("fast run's tracer committed no run-length summaries")
	}
	if exact.Perf.CtxReused != 0 || exact.Perf.Mem.FramesReused != 0 ||
		exact.Perf.Mem.AccCommits != 0 || exact.Perf.TraceCommits != 0 {
		t.Fatalf("exact reference took fast paths: %+v", exact.Perf)
	}
}
