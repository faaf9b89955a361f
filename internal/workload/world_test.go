package workload

import (
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/mach"
)

// TestTLBModeOverrideAtBoot pins the -tlbmode override as Boot applies
// it: "" keeps each config's own tier, "sync" clears the async fabric
// knobs, and "async" turns the fabric on except under SerializedIPIs or
// LazyRemote, which model competing dispatch disciplines.
func TestTLBModeOverrideAtBoot(t *testing.T) {
	all := core.All()
	allAsync := all
	allAsync.AsyncShootdown = true
	ackBeforeDrain := allAsync
	ackBeforeDrain.BrokenAckBeforeDrain = true
	baseAsync := core.Baseline()
	baseAsync.AsyncShootdown = true
	serialized := core.Config{SerializedIPIs: true}
	lazy := core.Config{LazyRemote: true}

	modes := []string{"", "sync", "async"}
	cases := []struct {
		name string
		cfg  core.Config
		want [3]core.Config // the booted flusher's Cfg under each of modes
	}{
		{"baseline", core.Baseline(), [3]core.Config{core.Baseline(), core.Baseline(), baseAsync}},
		{"all", all, [3]core.Config{all, all, allAsync}},
		{"all+async", allAsync, [3]core.Config{allAsync, all, allAsync}},
		{"all+async+ackbeforedrain", ackBeforeDrain, [3]core.Config{ackBeforeDrain, all, ackBeforeDrain}},
		{"serialized", serialized, [3]core.Config{serialized, serialized, serialized}},
		{"lazy", lazy, [3]core.Config{lazy, lazy, lazy}},
	}
	for mi, mode := range modes {
		for _, c := range cases {
			w := Template{TLBMode: mode}.boot(Safe, c.cfg, 1)
			got := w.F.Cfg
			w.Close()
			if got != c.want[mi] {
				t.Errorf("tlbmode %q, config %s: booted %s, want %s", mode, c.name, got, c.want[mi])
			}
		}
	}
}

// TestBootChecksTemplate: a misspelt tier override is an error, not a
// silent no-op, and so is an invalid topology; the zero topology is the
// paper's testbed.
func TestBootChecksTemplate(t *testing.T) {
	for _, mode := range []string{"asynch", "SYNC", "auto"} {
		w, err := Boot(Machine{Base: Template{TLBMode: mode}, Mode: Safe})
		if err == nil {
			w.Close()
			t.Errorf("Boot accepted tlbmode %q", mode)
		} else if err.Error() != CheckTLBMode(mode).Error() {
			t.Errorf("tlbmode %q: Boot error %q differs from CheckTLBMode's", mode, err)
		}
	}
	if _, err := Boot(Machine{Base: Template{Topo: mach.Topology{Sockets: 2}}}); err == nil {
		t.Error("Boot accepted a topology with no cores")
	}
	w, err := Boot(Machine{Mode: Safe})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.K.Topo != mach.DefaultTopology() {
		t.Errorf("zero template booted %s, want the default %s", w.K.Topo.Spec(), mach.DefaultTopology().Spec())
	}
}
