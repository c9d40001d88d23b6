package main

import (
	"time"

	"kloc/internal/harness"
	"kloc/internal/kernel"
	"kloc/internal/kobj"
	"kloc/internal/kstate"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
)

// policyBuckets groups the kernel.Policy entry points by the work they
// do; each bucket accumulates self time (nested hook calls are charged
// to the inner bucket only) and a call count.
type policyBuckets struct {
	InodeOpen  bucket // InodeOpened: the knode MovableFrames walk
	InodeOther bucket // InodeCreated / InodeClosed / InodeDeleted
	Object     bucket // ObjectCreated / ObjectAssociated / ObjectFreed
	Page       bucket // PageAllocated / PageAccessed / PageFreed
	Place      bucket // PlaceKernel / PlaceApp / UseKlocAllocator / DriverSockExtract / OOMVictimFrames
	Tick       bucket // Tick: the policy daemon
}

type bucket struct {
	Self  time.Duration
	Calls uint64
}

func (b *policyBuckets) add(o policyBuckets) {
	src := o.all()
	for i, dst := range b.all() {
		dst.Self += src[i].Self
		dst.Calls += src[i].Calls
	}
}

func (b *policyBuckets) all() []*bucket {
	return []*bucket{&b.InodeOpen, &b.InodeOther, &b.Object, &b.Page, &b.Place, &b.Tick}
}

// self is the policy layer's total self time.
func (b *policyBuckets) self() time.Duration {
	var d time.Duration
	for _, x := range b.all() {
		d += x.Self
	}
	return d
}

// timedPolicy decorates a kernel.Policy, timing every call the kernel
// makes into it. It is passive: every call forwards unchanged, so a
// run through it produces the same simulated results as the bare
// policy. One simulation drives it from one goroutine.
type timedPolicy struct {
	inner kernel.Policy
	// children holds, per open call, the time its nested hook calls
	// took, so each bucket gets self time only.
	children []time.Duration
	b        policyBuckets
}

// timedOOMPolicy adds the OOM victim nomination the kernel looks for
// with a type assertion, so the decorator offers it exactly when the
// inner policy does.
type timedOOMPolicy struct {
	*timedPolicy
	chooser kernel.OOMVictimChooser
}

// wrapPolicy returns the decorated policy to hand to RunConfig.Policy
// and the timer that accumulates its buckets.
func wrapPolicy(inner kernel.Policy) (kernel.Policy, *timedPolicy) {
	t := &timedPolicy{inner: inner}
	if ch, ok := inner.(kernel.OOMVictimChooser); ok {
		return timedOOMPolicy{timedPolicy: t, chooser: ch}, t
	}
	return t, t
}

// restoreKlocStats copies the KLOC registry figures harness.Run reads
// only from an unwrapped *policy.KLOCs, so a decorated run's Result
// matches an undecorated one.
func (t *timedPolicy) restoreKlocStats(res *harness.Result) {
	if kp, ok := t.inner.(*policy.KLOCs); ok {
		res.KlocMetadataBytes = kp.MetadataBytes()
		res.FastPathHitRate = kp.Reg.FastPathHitRate()
	}
}

func (t *timedPolicy) enter() time.Time {
	t.children = append(t.children, 0)
	return time.Now()
}

func (t *timedPolicy) exit(b *bucket, start time.Time) {
	took := time.Since(start)
	n := len(t.children) - 1
	b.Self += took - t.children[n]
	b.Calls++
	t.children = t.children[:n]
	if n > 0 {
		t.children[n-1] += took
	}
}

func (p timedOOMPolicy) OOMVictimFrames(node memsim.NodeID, now sim.Time) []*memsim.Frame {
	defer p.exit(&p.b.Place, p.enter())
	return p.chooser.OOMVictimFrames(node, now)
}

func (t *timedPolicy) Name() string             { return t.inner.Name() }
func (t *timedPolicy) Attach(k *kernel.Kernel)  { t.inner.Attach(k) }
func (t *timedPolicy) TickPeriod() sim.Duration { return t.inner.TickPeriod() }

func (t *timedPolicy) Tick(now sim.Time) sim.Duration {
	defer t.exit(&t.b.Tick, t.enter())
	return t.inner.Tick(now)
}

func (t *timedPolicy) PlaceKernel(ctx *kstate.Ctx, ty kobj.Type, ino uint64) []memsim.NodeID {
	defer t.exit(&t.b.Place, t.enter())
	return t.inner.PlaceKernel(ctx, ty, ino)
}

func (t *timedPolicy) PlaceApp(ctx *kstate.Ctx) []memsim.NodeID {
	defer t.exit(&t.b.Place, t.enter())
	return t.inner.PlaceApp(ctx)
}

func (t *timedPolicy) UseKlocAllocator(ty kobj.Type) bool {
	defer t.exit(&t.b.Place, t.enter())
	return t.inner.UseKlocAllocator(ty)
}

func (t *timedPolicy) DriverSockExtract() bool {
	defer t.exit(&t.b.Place, t.enter())
	return t.inner.DriverSockExtract()
}

func (t *timedPolicy) InodeCreated(ctx *kstate.Ctx, ino uint64, sock bool) {
	defer t.exit(&t.b.InodeOther, t.enter())
	t.inner.InodeCreated(ctx, ino, sock)
}

func (t *timedPolicy) InodeOpened(ctx *kstate.Ctx, ino uint64) {
	defer t.exit(&t.b.InodeOpen, t.enter())
	t.inner.InodeOpened(ctx, ino)
}

func (t *timedPolicy) InodeClosed(ctx *kstate.Ctx, ino uint64) {
	defer t.exit(&t.b.InodeOther, t.enter())
	t.inner.InodeClosed(ctx, ino)
}

func (t *timedPolicy) InodeDeleted(ctx *kstate.Ctx, ino uint64) {
	defer t.exit(&t.b.InodeOther, t.enter())
	t.inner.InodeDeleted(ctx, ino)
}

func (t *timedPolicy) ObjectCreated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	defer t.exit(&t.b.Object, t.enter())
	t.inner.ObjectCreated(ctx, ino, o)
}

func (t *timedPolicy) ObjectAssociated(ctx *kstate.Ctx, ino uint64, o *kobj.Object) {
	defer t.exit(&t.b.Object, t.enter())
	t.inner.ObjectAssociated(ctx, ino, o)
}

func (t *timedPolicy) ObjectFreed(ctx *kstate.Ctx, o *kobj.Object) {
	defer t.exit(&t.b.Object, t.enter())
	t.inner.ObjectFreed(ctx, o)
}

func (t *timedPolicy) PageAllocated(ctx *kstate.Ctx, f *memsim.Frame) {
	defer t.exit(&t.b.Page, t.enter())
	t.inner.PageAllocated(ctx, f)
}

func (t *timedPolicy) PageAccessed(ctx *kstate.Ctx, f *memsim.Frame) {
	defer t.exit(&t.b.Page, t.enter())
	t.inner.PageAccessed(ctx, f)
}

func (t *timedPolicy) PageFreed(ctx *kstate.Ctx, f *memsim.Frame) {
	defer t.exit(&t.b.Page, t.enter())
	t.inner.PageFreed(ctx, f)
}
