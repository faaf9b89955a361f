package experiments

import (
	"sync"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/workload"
)

// TestEveryExperimentUsesTemplate runs the whole registry quick on a
// non-default machine template (-topo 2x8x2 -faults light -tlbmode sync)
// and checks every machine each experiment boots. Every world carries the
// template's topology, except in scale, which sweeps its own widths, and
// the template's fault schedule, except in faults and async, which sweep
// their own schedules. Every world boots the sync tier, except that async
// and scale, which compare the two tiers, must each boot at least one
// async world. A cell that boots the default machine instead of its
// template fails here. Under -race it covers parallelCheckScope's subset,
// as the determinism cross-check does.
func TestEveryExperimentUsesTemplate(t *testing.T) {
	if testing.Short() {
		t.Skip("the templated quick suite is not short")
	}
	topo, err := mach.ParseTopology("2x8x2")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fault.Parse("light")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Seed: 1, Base: workload.Template{Faults: spec, Topo: topo, TLBMode: "sync"}}

	// The hook keeps only what the test checks, not the worlds.
	type booted struct {
		topo   mach.Topology
		faults fault.Spec
		async  bool
	}
	var mu sync.Mutex
	var worlds []booted
	restore := workload.SetBootHook(func(w *workload.World) {
		mu.Lock()
		worlds = append(worlds, booted{w.K.Topo, w.Fault.Spec(), w.F.Cfg.AsyncShootdown})
		mu.Unlock()
	})
	defer restore()

	reg := Registry()
	names, _ := parallelCheckScope()
	for _, name := range names {
		worlds = worlds[:0]
		reg[name](o)
		tiersCompared := name == "async" || name == "scale"
		asyncWorlds := 0
		for i, w := range worlds {
			if name != "scale" && w.topo != topo {
				t.Errorf("%s: world %d of %d booted topology %s, want %s", name, i, len(worlds), w.topo.Spec(), topo.Spec())
			}
			if name != "faults" && name != "async" && w.faults != spec {
				t.Errorf("%s: world %d of %d booted faults %q, want %q", name, i, len(worlds), w.faults, spec)
			}
			if w.async {
				asyncWorlds++
				if !tiersCompared {
					t.Errorf("%s: world %d of %d booted the async tier under -tlbmode sync", name, i, len(worlds))
				}
			}
		}
		if tiersCompared && asyncWorlds == 0 {
			t.Errorf("%s: no world booted the async tier under -tlbmode sync", name)
		}
	}
}
