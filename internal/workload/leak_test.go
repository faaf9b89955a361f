package workload

import (
	"sync"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/mach"
)

// TestWorkloadsLeakNoProcs is the goroutine-leak contract: every workload
// closes its worlds after the last stats read, so no simulated process —
// in particular no idle kernel CPU loop — stays parked on a goroutine
// once the workload returns. The boot hook captures every world each
// workload boots; afterwards each must report zero live processes.
//
// The contract must also hold under fault schedules: injected drops and
// stalls park initiators in the retry loop mid-run, and Shutdown has to
// unwind those too. The whole suite therefore repeats under a light
// schedule and under the drop-heavy one that exercises the recovery path
// hardest, and once more on a 32-CPU async machine. Every captured world
// must carry its template's fault schedule, topology and tier.
func TestWorkloadsLeakNoProcs(t *testing.T) {
	// Each iteration is one machine template; the last is not the default
	// machine, so every runner must boot its template, not the testbed.
	templates := []struct {
		faults, topo, tlbmode string
	}{
		{"none", "", ""},
		{"light", "", ""},
		{"drop", "", ""},
		{"light", "2x8x2", "async"},
	}
	for _, tc := range templates {
		spec, ok := fault.Preset(tc.faults)
		if !ok {
			t.Fatalf("unknown fault preset %q", tc.faults)
		}
		// The zero topology stands for the paper's testbed.
		var topo mach.Topology
		want := mach.DefaultTopology()
		if tc.topo != "" {
			var err error
			if topo, err = mach.ParseTopology(tc.topo); err != nil {
				t.Fatal(err)
			}
			want = topo
		}
		// The engine=wheel level keeps the subtest names stable for
		// -run filters; the timer wheel is the only event queue.
		name := "faults=" + tc.faults
		if tc.topo != "" {
			name += ",topo=" + tc.topo + ",tlbmode=" + tc.tlbmode
		}
		t.Run(name+"/engine=wheel", func(t *testing.T) {
			base := Template{Faults: spec, Topo: topo, TLBMode: tc.tlbmode}
			var mu sync.Mutex
			var worlds []*World
			restore := SetBootHook(func(w *World) {
				mu.Lock()
				worlds = append(worlds, w)
				mu.Unlock()
			})
			defer restore()

			check := func(name string, fn func()) {
				t.Run(name, func(t *testing.T) {
					mu.Lock()
					worlds = worlds[:0]
					mu.Unlock()
					fn()
					mu.Lock()
					defer mu.Unlock()
					if len(worlds) == 0 {
						t.Fatal("workload booted no worlds (boot hook not invoked)")
					}
					for i, w := range worlds {
						if w.Fault.Active() != !spec.Zero() {
							t.Errorf("world %d of %d: fault plane attached=%v, spec zero=%v", i, len(worlds), w.Fault.Active(), spec.Zero())
						}
						if w.Fault.Spec() != spec {
							t.Errorf("world %d of %d: fault schedule %q, want %q", i, len(worlds), w.Fault.Spec(), spec)
						}
						if w.K.Topo != want {
							t.Errorf("world %d of %d: topology %s, want %s", i, len(worlds), w.K.Topo.Spec(), want.Spec())
						}
						if w.F.Cfg.AsyncShootdown != (tc.tlbmode == "async") {
							t.Errorf("world %d of %d: booted %s under tlbmode %q", i, len(worlds), w.F.Cfg, tc.tlbmode)
						}
						if n := w.Eng.LiveProcs(); n != 0 {
							t.Errorf("world %d of %d: %d live procs after workload returned", i, len(worlds), n)
						}
					}
				})
			}

			check("micro", func() {
				RunMicro(MicroConfig{Base: base, Mode: Safe, PTEs: 1, Iterations: 5, Warmup: 1, Runs: 2, Seed: 1})
			})
			check("cow", func() {
				RunCoW(CoWConfig{Base: base, Mode: Safe, Pages: 8, Runs: 2, Seed: 1})
			})
			check("sysbench", func() {
				RunSysbench(SysbenchConfig{Base: base, Mode: Safe, Threads: 2, HotPages: 64, WritesPerSync: 4, Syncs: 2, ComputePerWrite: 1000, Seed: 1})
			})
			check("apache", func() {
				RunApache(ApacheConfig{Base: base, Mode: Safe, Cores: 2, RequestsPerCore: 4, FilePages: 2, ParseCycles: 5000, SendCycles: 5000, Seed: 1})
			})
			check("ackprobe", func() {
				RunAckProbe(AckProbeConfig{Base: base, Mode: Safe, Iterations: 4, Seed: 1})
			})
			check("microstats", func() {
				RunMicroWithStats(MicroConfig{Base: base, Mode: Safe, PTEs: 1, Iterations: 5, Warmup: 1, Seed: 1})
			})
			check("contention", func() {
				RunContention(ContentionConfig{Base: base, Mode: Safe, Initiators: 2, Iterations: 4, Seed: 1})
			})
			check("lazyprobe", func() {
				RunLazyProbe(base, Safe, core.Config{}, 1)
			})
			check("hwmsgprobe", func() {
				RunHWMessageProbe(base, true, 1)
			})
			check("paravirtprobe", func() {
				RunParavirtProbe(base, true, 4, 1)
			})
			check("pcidprobe", func() {
				RunPCIDProbe(base, true, 2, 8, 1)
			})
			check("daemonstorm", func() {
				RunDaemonStorm(DaemonStormConfig{Base: base, Mode: Safe, AppThreads: 2, Rounds: 10, Seed: 1})
			})
			check("server", func() {
				RunServer(ServerConfig{Base: base, Mode: Safe, TasksPerCPU: 1, Connections: 1 << 10,
					EventsPerTask: 4, RecycleEvery: 2, RemapEvery: 3, Recyclers: 2, Seed: 1})
			})
			check("scenarios", func() {
				for _, s := range Scenarios() {
					RunScenario(base, s, Safe, 1)
				}
			})
		})
	}
}
