// Package machine builds and drives the paper's unit of simulation:
// one kernel over a memory platform, steered by a tiering policy,
// running one workload (DESIGN.md §16).
package machine

import (
	"fmt"

	"kloc/internal/kernel"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
	"kloc/internal/workload"
)

// Machine is one assembled, set-up simulated machine.
type Machine struct {
	K  *kernel.Kernel
	WL workload.Workload
}

// New resolves the workload by name, builds the kernel over mem with
// pol, runs attach (when non-nil) on the bare kernel — the place for
// anything setup must already see — and runs the workload's Setup on
// rng. The kernel's daemons are not started.
func New(eng *sim.Engine, mem *memsim.Memory, pol kernel.Policy, wlName string, wcfg workload.Config,
	rng *sim.RNG, attach func(*kernel.Kernel)) (*Machine, error) {
	wl, err := workload.ByName(wlName, wcfg)
	if err != nil {
		return nil, err
	}
	k := kernel.New(eng, mem, pol)
	if attach != nil {
		attach(k)
	}
	if err := wl.Setup(k, rng); err != nil {
		return nil, fmt.Errorf("setup %s: %w", wl.Name(), err)
	}
	return &Machine{K: k, WL: wl}, nil
}

// WarpPastSetup runs eng up to the latest storage-device horizon that
// setup left on any of ms, so measurement starts with idle devices.
func WarpPastSetup(eng *sim.Engine, ms ...*Machine) {
	horizon := eng.Now()
	for _, m := range ms {
		horizon = max(horizon, sim.Time(m.K.FS.MQ.Dev.BusyUntil()))
	}
	if horizon > eng.Now() {
		eng.RunUntil(horizon)
	}
}

// Op runs one workload step on thread, drawing from rng, under
// kernel.Op's contract.
func (m *Machine) Op(thread int, rng *sim.RNG) (sim.Duration, error) {
	return m.K.Op(thread, func(ctx *kstate.Ctx) error { return m.WL.Step(m.K, ctx, thread, rng) })
}
