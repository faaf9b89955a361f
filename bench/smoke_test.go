package bench

import (
	"bytes"
	"strings"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/sim"
	"shootdown/internal/workload"
)

// TestBenchSmoke checks the harness without timing anything: the first
// cells of every workload reproduce their seed-1 golden lines, and cells
// that panic or leave simulated processes running are counted as failed,
// reported with a repro line, and do not stop the pass.
func TestBenchSmoke(t *testing.T) {
	for _, name := range workloads {
		t.Run("golden/"+name, func(t *testing.T) {
			cells, err := cellsFor(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			h := newHarness(name, 1, cells, &bytes.Buffer{})
			defer h.close()
			golden, err := h.readGolden()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				r := h.runCell(i)
				if r.err != "" {
					t.Fatalf("cell %d (%s): %s", i, cells[i].key, r.err)
				}
				if r.line != golden[i] {
					t.Errorf("cell %d differs from golden:\n  got  %s\n  want %s", i, r.line, golden[i])
				}
			}
		})
	}

	t.Run("failing-cells", func(t *testing.T) {
		micro, err := cellsFor("micro", 1)
		if err != nil {
			t.Fatal(err)
		}
		panics := cell{key: "panics", run: func() outcome {
			w := workload.NewWorld(workload.Safe, core.Baseline(), 1)
			w.Eng.Go("boom", func(*sim.Proc) { panic("deliberate") })
			w.Eng.Run()
			return outcome{}
		}}
		// Booted but never shut down: the per-CPU loops stay parked.
		leaks := cell{key: "leaks", run: func() outcome {
			workload.NewWorld(workload.Safe, core.Baseline(), 1).Eng.Run()
			return outcome{}
		}}
		var log bytes.Buffer
		h := newHarness("smoke", 1, []cell{micro[0], panics, leaks, micro[1]}, &log)
		defer h.close()
		p := h.pass()
		h.check(p.lines(), p.errs(), nil, "")
		if h.attempted != 4 || h.failed != 2 {
			t.Fatalf("attempted %d, failed %d; want 4 and 2\n%s", h.attempted, h.failed, log.String())
		}
		if p.runs[3].line == "" {
			t.Fatalf("the cell after the failures did not run: %q", p.runs[3].err)
		}
		for _, want := range []string{"panic: ", "--cell 1", "still live", "--cell 2"} {
			if !strings.Contains(log.String(), want) {
				t.Errorf("failure report lacks %q:\n%s", want, log.String())
			}
		}
	})
}

// TestStackLayer pins how sampled stacks (leaf first) map to host layers.
func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"shootdown/internal/sim.(*Engine).RunUntil"}, "sim"},
		{[]string{"shootdown/internal/sanitizer/ssa.(*Builder).build"}, "sanitizer"},
		{[]string{"shootdown/internal/syscalls.MMap"}, "kernel"},
		{[]string{"shootdown/internal/sched.Collect[go.shape.struct { shootdown/internal/workload.x int }]"}, "other"},
		{[]string{"runtime.mallocgc", "shootdown/internal/tlb.(*TLB).Fill"}, "gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "shootdown/internal/sim.(*Proc).yield"}, "sched"},
		{[]string{"internal/runtime/syscall.Syscall6"}, "sched"},
		// Helpers are charged to the simulator layer that called them.
		{[]string{"aeshashbody", "runtime.mapaccess2", "shootdown/internal/tlb.(*TLB).Lookup"}, "tlb"},
		{[]string{"runtime.memmove", "runtime.growslice", "shootdown/internal/tlb.(*TLB).Fill"}, "gc"},
		{[]string{"strings.Join", "shootdown/bench.(*harness).runCell", "main.main"}, "other"},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("stackLayer(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}
