// Quickstart: build a simulated machine, trigger one TLB shootdown, and
// compare the baseline Linux protocol with the paper's optimized protocol.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"shootdown"
)

// measure runs a madvise(DONTNEED)-triggered shootdown with a busy
// responder on another socket and returns the initiator's syscall cycles
// and the responder's interruption cycles.
func measure(cfg shootdown.Config) (init, resp uint64) {
	m, err := shootdown.NewMachine(
		shootdown.WithMode(shootdown.Safe),
		shootdown.WithConfig(cfg),
		shootdown.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}
	proc := m.NewProcess("demo")

	const respCPU = shootdown.CPU(28) // first CPU of the other socket
	stop := false
	proc.Go(respCPU, "responder", func(t *shootdown.Thread) {
		t.SpinUntil(func() bool { return stop }, 2000)
	})
	proc.Go(0, "initiator", func(t *shootdown.Thread) {
		t.Compute(10_000) // let the responder start
		v, err := t.MMap(10*shootdown.PageSize, shootdown.ProtRead|shootdown.ProtWrite,
			shootdown.MapAnon, nil, 0)
		if err != nil {
			log.Fatal(err)
		}
		for i := uint64(0); i < 10; i++ {
			if err := t.Write(v.Start + i*shootdown.PageSize); err != nil {
				log.Fatal(err)
			}
		}
		start := t.Now()
		if err := t.Madvise(v.Start, 10*shootdown.PageSize); err != nil {
			log.Fatal(err)
		}
		init = t.Now() - start
		t.Compute(20_000) // let the responder's IRQ drain
		resp = m.Interrupted(respCPU)
		stop = true
	})
	m.Run()
	return init, resp
}

func main() {
	baseInit, baseResp := measure(shootdown.Baseline())
	optInit, optResp := measure(shootdown.AllGeneral())

	fmt.Println("madvise(DONTNEED, 10 pages) with a cross-socket responder, safe mode (PTI on):")
	fmt.Printf("  baseline protocol:  initiator %6d cycles   responder interrupted %6d cycles\n", baseInit, baseResp)
	fmt.Printf("  all 4 optimizations: initiator %6d cycles   responder interrupted %6d cycles\n", optInit, optResp)
	fmt.Printf("  initiator latency reduction: %.0f%%\n", 100*(1-float64(optInit)/float64(baseInit)))
	fmt.Printf("  responder latency reduction: %.0f%%\n", 100*(1-float64(optResp)/float64(baseResp)))
}
