// Dbsync: the paper's Sysbench scenario (§5.2) through the public API.
// Database worker threads randomly write a shared memory-mapped file on
// emulated persistent memory and periodically call fdatasync; writeback
// write-protects the dirty pages, shooting down every worker's TLB. The
// example shows the effect of userspace-safe batching (§4.2): while a
// worker is inside fdatasync it cannot touch user mappings, so other
// workers skip its IPI and queue the flush instead.
//
//	go run ./examples/dbsync
package main

import (
	"fmt"
	"log"

	"shootdown"
)

const (
	hotPages      = 1024
	writesPerSync = 48
	syncs         = 6
	computeCycles = 6000
	workers       = 8
)

func run(cfg shootdown.Config, seed uint64) (makespan uint64, stats string) {
	m, err := shootdown.NewMachine(shootdown.WithConfig(cfg), shootdown.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	db := m.NewProcess("db")
	file := m.NewFile("table.ibd", hotPages*shootdown.PageSize)

	var region uint64
	ready := 0
	finished := 0
	var startAt, endAt uint64
	for w := 0; w < workers; w++ {
		w := w
		rng := seed*2654435761 + uint64(w)*104729
		db.Go(shootdown.CPU(w), fmt.Sprintf("worker%d", w), func(t *shootdown.Thread) {
			if w == 0 {
				v, err := t.MMap(hotPages*shootdown.PageSize,
					shootdown.ProtRead|shootdown.ProtWrite, shootdown.MapFileShared, file, 0)
				if err != nil {
					log.Fatal(err)
				}
				for i := uint64(0); i < hotPages; i++ {
					if err := t.Write(v.Start + i*shootdown.PageSize); err != nil {
						log.Fatal(err)
					}
				}
				if err := t.Fdatasync(file); err != nil {
					log.Fatal(err)
				}
				region = v.Start
			}
			ready++
			t.SpinUntil(func() bool { return ready >= workers && region != 0 }, 500)
			if startAt == 0 {
				startAt = t.Now()
			}
			for s := 0; s < syncs; s++ {
				for i := 0; i < writesPerSync; i++ {
					// xorshift-style deterministic page pick
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					va := region + (rng%hotPages)*shootdown.PageSize
					if err := t.Write(va); err != nil {
						log.Fatal(err)
					}
					t.Compute(computeCycles)
				}
				if err := t.Fdatasync(file); err != nil {
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
	st := m.Stats()
	return endAt - startAt, fmt.Sprintf("shootdowns=%d batched-skips=%d remote-full=%d remote-skipped=%d",
		st.Shootdowns, st.BatchedSkips, st.RemoteFull, st.RemoteSkipped)
}

func main() {
	fmt.Printf("Sysbench-style random write + fdatasync, %d workers on one socket:\n\n", workers)
	base, baseStats := run(shootdown.Baseline(), 11)
	fmt.Printf("  baseline:           %9d cycles   %s\n", base, baseStats)
	gen := shootdown.AllGeneral()
	all, allStats := run(gen, 11)
	fmt.Printf("  general techniques: %9d cycles   %s\n", all, allStats)
	withBatch := shootdown.AllOptimizations()
	batch, batchStats := run(withBatch, 11)
	fmt.Printf("  + batching:         %9d cycles   %s\n", batch, batchStats)
	fmt.Printf("\n  speedup (general):  %.3fx\n", float64(base)/float64(all))
	fmt.Printf("  speedup (+batching): %.3fx\n", float64(base)/float64(batch))
}
