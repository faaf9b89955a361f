// Webserver: the paper's Apache mpm_event scenario (§5.3) through the
// public API. Worker threads of one process each serve requests by
// mmapping the requested file, reading it, "sending" it, and unmapping it
// — the teardown pattern that makes Apache a heavy TLB shootdown
// generator. The example sweeps the worker count and prints throughput for
// the baseline and optimized protocols.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"shootdown"
)

const (
	filePages    = 3 // responses under 12 KiB, as in the paper
	requests     = 50
	parseCycles  = 52_000
	sendCycles   = 40_000
	cyclesPerSec = 2_000_000_000
)

func serve(cfg shootdown.Config, workers int) (reqPerSec float64) {
	m, err := shootdown.NewMachine(shootdown.WithConfig(cfg), shootdown.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	apache := m.NewProcess("apache")
	htdocs := m.NewFile("index.html", filePages*shootdown.PageSize)

	ready := 0
	finished := 0
	var startAt, endAt uint64
	for w := 0; w < workers; w++ {
		cpu := shootdown.CPU(w * 2) // one worker per physical core
		apache.Go(cpu, fmt.Sprintf("worker%d", w), func(t *shootdown.Thread) {
			ready++
			t.SpinUntil(func() bool { return ready >= workers }, 500)
			if startAt == 0 {
				startAt = t.Now()
			}
			for r := 0; r < requests; r++ {
				t.Compute(parseCycles)
				v, err := t.MMap(filePages*shootdown.PageSize, shootdown.ProtRead,
					shootdown.MapFileShared, htdocs, 0)
				if err != nil {
					log.Fatal(err)
				}
				for i := uint64(0); i < filePages; i++ {
					if err := t.Read(v.Start + i*shootdown.PageSize); err != nil {
						log.Fatal(err)
					}
				}
				t.Compute(sendCycles)
				if err := t.Munmap(v.Start, v.Len()); err != nil {
					log.Fatal(err)
				}
			}
			finished++
			if finished == workers {
				endAt = t.Now()
			}
		})
	}
	m.Run()
	elapsed := float64(endAt - startAt)
	return float64(workers*requests) / (elapsed / cyclesPerSec)
}

func main() {
	fmt.Println("Apache-style serving loop (mmap/read/send/munmap per request):")
	fmt.Printf("%7s %14s %14s %8s\n", "workers", "baseline", "optimized", "speedup")
	for _, w := range []int{1, 2, 4, 8, 11} {
		base := serve(shootdown.Baseline(), w)
		opt := serve(shootdown.AllGeneral(), w)
		fmt.Printf("%7d %10.0f r/s %10.0f r/s %7.3fx\n", w, base, opt, opt/base)
	}
	fmt.Println("\nmunmap frees page tables, so early acknowledgement is suppressed for")
	fmt.Println("these shootdowns — concurrent and in-context flushing provide the gains,")
	fmt.Println("matching the paper's Figure 11 analysis.")
}
