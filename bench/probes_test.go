package bench

import (
	"runtime"
	"time"

	"shootdown/internal/mach"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/tlb"
)

// probeTrials is how many times each probe repeats; the median is kept.
const probeTrials = 5

// probe runs op(n) probeTrials times and returns the median host ns and
// heap allocations per repetition.
func probe(n int, op func(n int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for t := 0; t < probeTrials; t++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// probes measures fixed-count mechanisms of single layers through their
// public functions: a proc switch, a Cond wakeup, a bare engine event
// (with 1 and with 512 events pending), a TLB lookup, and a walk over a
// full 512-CPU mask.
func probes() map[string]metric {
	ms := map[string]metric{}
	nsSwitch, _ := probe(100_000, func(n int) {
		e := sim.NewEngine(1)
		e.Go("switch", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Delay(1)
			}
		})
		e.Run()
		e.Shutdown()
	})
	ms["sim.ns_per_switch"] = metric{nsSwitch, "ns"}

	nsWake, allocsWake := probe(50_000, func(n int) {
		e := sim.NewEngine(1)
		c := e.NewCond()
		e.Go("signaller", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.Signal()
				p.Delay(1)
			}
			c.Broadcast()
		})
		e.Go("waiter", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.Wait(p)
			}
		})
		e.Run()
		e.Shutdown()
	})
	ms["sim.ns_per_wake"] = metric{nsWake, "ns"}
	ms["sim.allocs_per_wake"] = metric{allocsWake, "count"}

	// events keeps width self-rescheduling events pending at once.
	events := func(width int) func(int) {
		return func(n int) {
			e := sim.NewEngine(1)
			r := sim.NewRand(7)
			fired := 0
			var step func()
			step = func() {
				if fired < n {
					fired++
					e.After(r.Uint64n(5000)+1, step)
				}
			}
			for i := 0; i < width; i++ {
				e.After(r.Uint64n(5000)+1, step)
			}
			e.Run()
		}
	}
	nsEvent, _ := probe(1_000_000, events(1))
	ms["sim.ns_per_event"] = metric{nsEvent, "ns"}
	nsEvent512, _ := probe(1_000_000, events(512))
	ms["sim.ns_per_event_512"] = metric{nsEvent512, "ns"}

	nsLookup, _ := probe(1_000_000, func(n int) {
		const entries = 1024
		t := tlb.New(tlb.DefaultConfig())
		for i := uint64(0); i < entries; i++ {
			t.Fill(1, tlb.Entry{VA: i << 12, Frame: i, Size: pagetable.Size4K})
		}
		for i := 0; i < n; i++ {
			t.Lookup(1, uint64(i%(2*entries))<<12) // half hit, half miss
		}
	})
	ms["tlb.ns_per_lookup"] = metric{nsLookup, "ns"}

	nsForEach, _ := probe(20_000, func(n int) {
		m := mach.NewCPUMask(512)
		for c := 0; c < 512; c++ {
			m.Set(mach.CPU(c))
		}
		visited := 0
		for i := 0; i < n; i++ {
			m.ForEach(func(mach.CPU) { visited++ })
		}
	})
	ms["mach.ns_per_foreach_512"] = metric{nsForEach, "ns"}
	return ms
}
