package kernel

import (
	"errors"
	"testing"

	"kloc/internal/fault"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/sim"
)

func chargeNothing(*kstate.Ctx) error { return nil }

func failENOMEM(c *kstate.Ctx) error {
	c.Charge(3 * opFloor)
	return fault.ENOMEM
}

// TestOpChargesAtLeastTheFloor: an op costs what its step charged, but
// never less than the floor — an op that charges nothing still pays it.
func TestOpChargesAtLeastTheFloor(t *testing.T) {
	k, _, _ := newTestKernel(0)
	if cost, err := k.Op(0, chargeNothing); err != nil || cost != opFloor {
		t.Fatalf("empty op = (%v, %v), want (%v, nil)", cost, err, opFloor)
	}
	cost, err := k.Op(1, failENOMEM)
	if !errors.Is(err, fault.ENOMEM) || cost != 3*opFloor {
		t.Fatalf("failing op = (%v, %v), want (%v, ENOMEM)", cost, err, 3*opFloor)
	}
}

// TestOpRecyclesContexts: on the fast path the context goes back to
// the pool after success and after an errno alike, so only the first
// op allocates one; the exact reference never pools.
func TestOpRecyclesContexts(t *testing.T) {
	k, _, _ := newTestKernel(0)
	for i, step := range []func(*kstate.Ctx) error{chargeNothing, failENOMEM, chargeNothing, chargeNothing} {
		k.Op(i, step)
	}
	if fresh, reused := k.CtxPoolCounters(); fresh != 1 || reused != 3 {
		t.Fatalf("fast path: fresh=%d reused=%d, want 1 and 3", fresh, reused)
	}

	mem := memsim.NewTwoTier(memsim.TwoTierConfig{
		FastPages: 256, SlowPages: 1024, FastBandwidth: 30, BandwidthRatio: 4, CPUs: 4,
	})
	mem.SetExact(true)
	exact := New(sim.NewEngine(), mem, &testPolicy{})
	for i, step := range []func(*kstate.Ctx) error{chargeNothing, failENOMEM, chargeNothing} {
		exact.Op(i, step)
	}
	if fresh, reused := exact.CtxPoolCounters(); fresh != 3 || reused != 0 {
		t.Fatalf("exact reference: fresh=%d reused=%d, want 3 and 0", fresh, reused)
	}
}

// TestOpSteadyStateAllocFree: once the pool holds a context, an op
// allocates nothing — in particular the step closure, which captures
// caller state, must not escape through Op.
func TestOpSteadyStateAllocFree(t *testing.T) {
	k, _, _ := newTestKernel(0)
	charge := 2 * opFloor
	k.Op(0, chargeNothing)
	allocs := testing.AllocsPerRun(100, func() {
		k.Op(0, func(c *kstate.Ctx) error {
			c.Charge(charge)
			return nil
		})
	})
	if allocs != 0 {
		t.Fatalf("steady-state op allocates %.1f times, want 0", allocs)
	}
}
