package workload

import (
	"fmt"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/sched"
)

// TestScenariosMetamorphicWide extends the metamorphic contract to the
// scale-out machines: on 256- and 512-CPU topologies, faults may change
// when everything happens, never what the memory ends up being. Every
// scenario's final-state digest under the light and heavy schedules must
// match the fault-free run at the same width. Each cell's template
// carries its topology, so the whole sweep fans out under the parallel
// scheduler.
func TestScenariosMetamorphicWide(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-topology sweep is slow; run without -short")
	}
	widths := []int{256, 512}
	specs := []string{"light", "heavy"}
	type cell struct {
		s     Scenario
		width int
	}
	var cells []cell
	for _, s := range Scenarios() {
		for _, w := range widths {
			cells = append(cells, cell{s, w})
		}
	}
	type verdict struct {
		name string
		errs []string
	}
	got := sched.Collect(len(cells), func(i int) verdict {
		c := cells[i]
		v := verdict{name: fmt.Sprintf("%s/width=%d", c.s.Name, c.width)}
		topo, err := mach.ScaleTopology(c.width)
		if err != nil {
			v.errs = append(v.errs, err.Error())
			return v
		}
		base := RunScenario(Template{Topo: topo}, c.s, Safe, 1)
		for _, name := range specs {
			spec, ok := fault.Preset(name)
			if !ok {
				v.errs = append(v.errs, fmt.Sprintf("unknown preset %q", name))
				continue
			}
			if d := RunScenario(Template{Faults: spec, Topo: topo}, c.s, Safe, 1); d != base {
				v.errs = append(v.errs, fmt.Sprintf("digest under %s faults = %s, fault-free = %s", name, d, base))
			}
		}
		return v
	})
	for _, v := range got {
		for _, e := range v.errs {
			t.Errorf("%s: %s", v.name, e)
		}
	}
}

// TestServerScalesAcrossWidths pins the scale workload itself: at every
// width the server serves every event, generates shootdown traffic, and
// engages the cluster-ack aggregation exactly on the machines wider than
// 128 CPUs.
func TestServerScalesAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("512-CPU cells are slow; run without -short")
	}
	for _, width := range []int{56, 256, 512} {
		topo, err := mach.ScaleTopology(width)
		if err != nil {
			t.Fatal(err)
		}
		cfg := ServerConfig{
			Mode: Safe, Topo: topo, TasksPerCPU: 1, Connections: 1 << 12,
			EventsPerTask: 6, RecycleEvery: 3, RemapEvery: 5, Recyclers: 8, Seed: 7,
		}
		res := RunServer(cfg)
		if res.Events != width*cfg.EventsPerTask {
			t.Errorf("width %d: served %d events, want %d", width, res.Events, width*cfg.EventsPerTask)
		}
		if res.Shootdowns == 0 || res.ICRWrites == 0 {
			t.Errorf("width %d: no shootdown traffic: %+v", width, res)
		}
		if engaged := res.ClusterAckStores > 0; engaged != (width > 128) {
			t.Errorf("width %d: cluster ack aggregation engaged=%v, want %v (%+v)",
				width, engaged, width > 128, res)
		}
	}
}
