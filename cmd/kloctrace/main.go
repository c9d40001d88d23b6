// Command kloctrace runs one workload/policy pair and dumps a
// time-sliced trace of placement state: node occupancy by class,
// migration activity, and KLOC registry state — a debugging lens on
// what the policies actually do. It builds, warps and charges the
// machine as a harness run does (DESIGN.md §16); slice times count from
// the end of setup, and a failed op ends the trace with exit status 1.
//
// Usage:
//
//	kloctrace -policy klocs -workload rocksdb -slices 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"kloc/internal/machine"
	"kloc/internal/memsim"
	"kloc/internal/policy"
	"kloc/internal/sim"
	"kloc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "kloctrace:", err)
		os.Exit(1)
	}
}

// run parses args, traces the run and writes the table to w.
func run(args []string, w io.Writer) error {
	flags := flag.NewFlagSet("kloctrace", flag.ContinueOnError)
	var (
		polName = flags.String("policy", "klocs", "tiering policy")
		wlName  = flags.String("workload", "rocksdb", "workload")
		slices  = flags.Int("slices", 10, "number of trace slices")
		durMS   = flags.Int("duration-ms", 200, "virtual duration in ms")
		seed    = flags.Uint64("seed", 42, "simulation seed")
		scale   = flags.Int("scale", 64, "platform scale divisor")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if *slices < 1 {
		return fmt.Errorf("-slices must be positive")
	}

	mem := memsim.NewTwoTier(memsim.DefaultTwoTier(*scale))
	pol, err := policy.ByName(*polName)
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	root := sim.NewRNG(*seed)
	m, err := machine.New(eng, mem, pol, *wlName, workload.Config{ScaleDiv: *scale}, root, nil)
	if err != nil {
		return err
	}
	machine.WarpPastSetup(eng, m)
	m.K.Start()
	setupEnd := eng.Now()

	total := sim.Duration(*durMS) * sim.Millisecond
	slice := total / sim.Duration(*slices)
	end := setupEnd.Add(total)
	var stepErr error
	for t := 0; t < m.WL.Threads(); t++ {
		rng := root.Fork()
		var step func(*sim.Engine)
		step = func(e *sim.Engine) {
			if stepErr != nil || e.Now() >= end {
				return
			}
			cost, err := m.Op(t, rng)
			if err != nil {
				stepErr = fmt.Errorf("%s thread %d: %w", m.WL.Name(), t, err)
				return
			}
			e.After(cost, step)
		}
		eng.Schedule(setupEnd.Add(sim.Duration(t)), step) // staggered, as in the harness
	}

	fmt.Fprintf(w, "trace: %s / %s on two-tier (fast=%d pages, slow=%d pages)\n\n",
		*polName, *wlName, mem.Node(memsim.FastNode).Capacity, mem.Node(memsim.SlowNode).Capacity)
	fmt.Fprintf(w, "%-8s %-22s %-22s %-10s %-10s %s\n",
		"t", "fast used (cls app/$/slab)", "slow used", "demoted", "promoted", "kloc")

	var lastDem, lastProm uint64
	for i := 1; i <= *slices; i++ {
		at := slice * sim.Duration(i)
		eng.RunUntil(setupEnd.Add(at))
		if stepErr != nil {
			return stepErr
		}
		fast := mem.Node(memsim.FastNode)
		slow := mem.Node(memsim.SlowNode)
		klocInfo := "-"
		if kp, ok := pol.(*policy.KLOCs); ok {
			klocInfo = fmt.Sprintf("knodes=%d meta=%dB hit=%.2f",
				kp.Reg.Len(), kp.Reg.MetadataBytes(), kp.Reg.FastPathHitRate())
		}
		fmt.Fprintf(w, "%-8v %-22s %-22s %-10d %-10d %s\n",
			at,
			occupancy(mem, memsim.FastNode, fast.Capacity),
			occupancy(mem, memsim.SlowNode, slow.Capacity),
			mem.Stats.Demotions-lastDem,
			mem.Stats.Promotions-lastProm,
			klocInfo)
		lastDem, lastProm = mem.Stats.Demotions, mem.Stats.Promotions
	}
	return nil
}

func occupancy(m *memsim.Memory, node memsim.NodeID, cap_ int) string {
	var byClass [6]int
	for _, f := range m.FramesOn(node) {
		byClass[f.Class]++
	}
	used := m.Node(node).Used()
	return fmt.Sprintf("%d/%d (%d/%d/%d)", used, cap_,
		byClass[memsim.ClassApp], byClass[memsim.ClassCache],
		byClass[memsim.ClassSlab]+byClass[memsim.ClassKloc]+byClass[memsim.ClassMeta])
}
