package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// hostCost is what one job cost the host.
type hostCost struct {
	Wall time.Duration
	// CPU is process user+system time; GCCPU the runtime's estimate of
	// the part spent in garbage collection.
	CPU, GCCPU float64
	AllocBytes uint64
	// PeakHeap is the largest sampled heap-object footprint.
	PeakHeap uint64
}

const (
	mAllocs    = "/gc/heap/allocs:bytes"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mHeapInUse = "/memory/classes/heap/objects:bytes"
	// heapSampleEvery trades sampler wake-ups against how closely the
	// sampled peak tracks the true one between two GC cycles.
	heapSampleEvery = 10 * time.Millisecond
)

// measure runs fn from a freshly collected heap and reports its host
// cost. A sampler goroutine tracks the heap peak; it has exited by the
// time measure returns.
func measure(fn func() error) (hostCost, error) {
	runtime.GC()
	before := readMetrics(mAllocs, mGCCPU)
	cpu0 := cpuSeconds()

	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var max uint64
		for {
			if h := readMetrics(mHeapInUse)[0].Uint64(); h > max {
				max = h
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()

	start := time.Now()
	err := fn()
	c := hostCost{Wall: time.Since(start)}
	close(stop)
	c.PeakHeap = <-peak
	c.CPU = cpuSeconds() - cpu0
	after := readMetrics(mAllocs, mGCCPU)
	c.AllocBytes = after[0].Uint64() - before[0].Uint64()
	c.GCCPU = after[1].Float64() - before[1].Float64()
	return c, err
}

func readMetrics(names ...string) []metrics.Value {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]metrics.Value, len(s))
	for i := range s {
		out[i] = s[i].Value
	}
	return out
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
