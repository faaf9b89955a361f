package shootdown_test

import (
	"fmt"

	"shootdown"
)

// ExampleNewMachine runs one madvise-triggered TLB shootdown with a
// busy responder on another socket and prints the protocol counters.
func ExampleNewMachine() {
	m, err := shootdown.NewMachine(
		shootdown.WithMode(shootdown.Safe),
		shootdown.WithConfig(shootdown.AllGeneral()),
		shootdown.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	proc := m.NewProcess("demo")
	stop := false
	proc.Go(28, "responder", func(t *shootdown.Thread) {
		t.SpinUntil(func() bool { return stop }, 2000)
	})
	proc.Go(0, "initiator", func(t *shootdown.Thread) {
		t.Compute(10_000)
		v, err := t.MMap(4*shootdown.PageSize, shootdown.ProtRead|shootdown.ProtWrite,
			shootdown.MapAnon, nil, 0)
		if err != nil {
			panic(err)
		}
		if err := t.Write(v.Start); err != nil {
			panic(err)
		}
		if err := t.Madvise(v.Start, shootdown.PageSize); err != nil {
			panic(err)
		}
		stop = true
	})
	m.Run()
	st := m.Stats()
	fmt.Printf("shootdowns=%d remote-selective=%d\n", st.Shootdowns, st.RemoteSelective)
	// Output: shootdowns=1 remote-selective=1
}

// ExampleThread_Fork forks a process and shows copy-on-write at work:
// the child's write gets a private copy while the parent keeps its page.
func ExampleThread_Fork() {
	m, err := shootdown.NewMachine(shootdown.WithSeed(2))
	if err != nil {
		panic(err)
	}
	parent := m.NewProcess("parent")
	parent.Go(0, "main", func(t *shootdown.Thread) {
		v, err := t.MMap(4*shootdown.PageSize, shootdown.ProtRead|shootdown.ProtWrite,
			shootdown.MapAnon, nil, 0)
		if err != nil {
			panic(err)
		}
		if err := t.Write(v.Start); err != nil {
			panic(err)
		}
		child, err := t.Fork("child")
		if err != nil {
			panic(err)
		}
		child.Go(2, "child-main", func(ct *shootdown.Thread) {
			if err := ct.Write(v.Start); err != nil { // CoW break
				panic(err)
			}
			fmt.Printf("child CoW writes done, write-tricks=%d\n", m.Stats().CoWWriteTricks)
		})
	})
	m.Run()
	fmt.Printf("cow-local-flushes=%d\n", m.Stats().CoWLocalFlushes)
	// Output:
	// child CoW writes done, write-tricks=0
	// cow-local-flushes=1
}
