// Forkcow: fork() as a TLB shootdown source and CoW generator. Forking
// write-protects the parent's private pages — a shootdown to every CPU
// running the parent — and every later write on either side breaks CoW,
// the fault path the paper's §4.1 optimization accelerates.
//
//	go run ./examples/forkcow
package main

import (
	"fmt"
	"log"

	"shootdown"
)

const pages = 32

func run(cfg shootdown.Config) (forkCycles, parentWrites, childWrites uint64, tricks uint64) {
	m, err := shootdown.NewMachine(shootdown.WithConfig(cfg), shootdown.WithSeed(12))
	if err != nil {
		log.Fatal(err)
	}
	parent := m.NewProcess("parent")
	var start uint64
	forked := false

	// A sibling thread keeps the parent's mm active on another CPU, so
	// fork's write-protect flush becomes a real shootdown.
	stop := false
	parent.Go(2, "sibling", func(t *shootdown.Thread) {
		t.SpinUntil(func() bool { return start != 0 }, 1000)
		t.Write(start) // cache a writable translation
		t.SpinUntil(func() bool { return stop }, 2000)
	})

	parent.Go(0, "main", func(t *shootdown.Thread) {
		v, err := t.MMap(pages*shootdown.PageSize, shootdown.ProtRead|shootdown.ProtWrite,
			shootdown.MapAnon, nil, 0)
		if err != nil {
			log.Fatal(err)
		}
		for i := uint64(0); i < pages; i++ {
			t.Write(v.Start + i*shootdown.PageSize)
		}
		start = v.Start
		t.Compute(20_000)

		t0 := t.Now()
		childProc, err := t.Fork("child")
		if err != nil {
			log.Fatal(err)
		}
		forkCycles = t.Now() - t0
		forked = true

		// Child writes half the pages (CoW in the child)...
		childProc.Go(4, "child-main", func(ct *shootdown.Thread) {
			t0 := ct.Now()
			for i := uint64(0); i < pages/2; i++ {
				if err := ct.Write(v.Start + i*shootdown.PageSize); err != nil {
					log.Fatal(err)
				}
			}
			childWrites = ct.Now() - t0
		})

		// ...while the parent writes the other half (CoW in the parent).
		t0 = t.Now()
		for i := uint64(pages / 2); i < pages; i++ {
			if err := t.Write(v.Start + i*shootdown.PageSize); err != nil {
				log.Fatal(err)
			}
		}
		parentWrites = t.Now() - t0
		stop = true
	})
	m.Run()
	if !forked {
		log.Fatal("fork never ran")
	}
	return forkCycles, parentWrites, childWrites, m.Stats().CoWWriteTricks
}

func main() {
	fmt.Println("fork() + copy-on-write through the shootdown protocol:")
	for _, c := range []struct {
		name string
		cfg  shootdown.Config
	}{
		{"baseline ", shootdown.Baseline()},
		{"optimized", shootdown.AllOptimizations()},
	} {
		fork, pw, cw, tricks := run(c.cfg)
		fmt.Printf("  %s: fork %6d cycles   parent CoW writes %6d   child CoW writes %6d   write-tricks used %d\n",
			c.name, fork, pw, cw, tricks)
	}
	fmt.Println("\nfork write-protects the parent's pages (one shootdown), and each")
	fmt.Println("post-fork write is a CoW break — with AvoidCoWFlush the local flush is")
	fmt.Println("replaced by a kernel write access (§4.1).")
}
