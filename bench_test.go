package shootdown

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus per-optimization microbenchmarks. Each
// experiment benchmark regenerates its table in quick mode per iteration;
// reported custom metrics carry the headline quantity of the figure so
// `go test -bench=. -benchmem` doubles as a reproduction run.
//
// For the full-scale sweeps (paper-sized), use `go run ./cmd/tlbsim -exp
// all` instead; benchmarks use quick mode to stay tractable.

import (
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/experiments"
	"shootdown/internal/mach"
	"shootdown/internal/pagetable"
	"shootdown/internal/workload"
)

// benchExperiment runs a registry experiment once per b.N iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	runner := experiments.Registry()[name]
	if runner == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		tabs := runner(experiments.Options{Quick: true, Seed: uint64(i + 1)})
		if len(tabs) == 0 || len(tabs[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkFig5SafeMode1PTE(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkFig6SafeMode10PTEs(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7UnsafeMode1PTE(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8UnsafeMode10PTE(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkTable3Reductions(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig9CoW(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10Sysbench(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11Apache(b *testing.B)         { benchExperiment(b, "fig11") }
func BenchmarkTable4Fracturing(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkAblations(b *testing.B)           { benchExperiment(b, "ablation") }

// --- Per-optimization shootdown microbenchmarks ---
//
// Each benchmark measures one simulated madvise-triggered shootdown
// (cross socket, 10 PTEs, safe mode) under a single configuration and
// reports the simulated initiator latency as a custom metric.

func benchShootdown(b *testing.B, mode workload.Mode, cfg core.Config, ptes int) {
	b.Helper()
	var last workload.MicroResult
	for i := 0; i < b.N; i++ {
		last = workload.RunMicro(workload.MicroConfig{
			Mode: mode, Core: cfg, Placement: mach.PlaceCrossSocket,
			PTEs: ptes, Iterations: 20, Warmup: 3, Runs: 1, Seed: uint64(i + 1),
		})
	}
	b.ReportMetric(last.Initiator.Mean, "sim-initiator-cycles")
	b.ReportMetric(last.Responder.Mean, "sim-responder-cycles")
}

func BenchmarkShootdownBaseline(b *testing.B) {
	benchShootdown(b, workload.Safe, core.Baseline(), 10)
}

func BenchmarkShootdownConcurrent(b *testing.B) {
	benchShootdown(b, workload.Safe, core.Config{ConcurrentFlush: true}, 10)
}

func BenchmarkShootdownEarlyAck(b *testing.B) {
	benchShootdown(b, workload.Safe, core.Config{ConcurrentFlush: true, EarlyAck: true}, 10)
}

func BenchmarkShootdownCacheline(b *testing.B) {
	benchShootdown(b, workload.Safe, core.Config{
		ConcurrentFlush: true, EarlyAck: true, CachelineConsolidation: true,
	}, 10)
}

func BenchmarkShootdownInContext(b *testing.B) {
	benchShootdown(b, workload.Safe, core.AllGeneral(), 10)
}

func BenchmarkShootdownUnsafeBaseline(b *testing.B) {
	benchShootdown(b, workload.Unsafe, core.Baseline(), 10)
}

func BenchmarkShootdownUnsafeOptimized(b *testing.B) {
	cfg := core.AllGeneral()
	cfg.InContextFlush = false // no PTI in unsafe mode
	benchShootdown(b, workload.Unsafe, cfg, 10)
}

// --- Engine/substrate throughput benchmarks ---

func BenchmarkCoWFault(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		s := workload.RunCoW(workload.CoWConfig{
			Mode: workload.Safe, Core: core.Config{AvoidCoWFlush: true},
			Pages: 32, Runs: 1, Seed: uint64(i + 1),
		})
		mean = s.Mean
	}
	b.ReportMetric(mean, "sim-cow-cycles")
}

func BenchmarkSysbench8Threads(b *testing.B) {
	var r workload.SysbenchResult
	for i := 0; i < b.N; i++ {
		cfg := workload.DefaultSysbenchConfig()
		cfg.Threads, cfg.Syncs = 8, 3
		cfg.Core = core.All()
		cfg.Seed = uint64(i + 1)
		r = workload.RunSysbench(cfg)
	}
	b.ReportMetric(r.OpsPerSecond(2e9), "sim-ops/s")
}

func BenchmarkApache8Cores(b *testing.B) {
	var r workload.ApacheResult
	for i := 0; i < b.N; i++ {
		cfg := workload.DefaultApacheConfig()
		cfg.Cores, cfg.RequestsPerCore = 8, 30
		cfg.Core = core.AllGeneral()
		cfg.Seed = uint64(i + 1)
		r = workload.RunApache(cfg)
	}
	b.ReportMetric(r.RequestsPerSecond(2e9), "sim-req/s")
}

func BenchmarkFractureSelectiveFlush(b *testing.B) {
	var misses uint64
	for i := 0; i < b.N; i++ {
		r, err := workload.RunFracture(workload.FractureConfig{
			VM: true, GuestSize: pagetable.Size2M, HostSize: pagetable.Size4K,
			BufferBytes: 2 << 20, Iterations: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		misses = r.Misses
	}
	b.ReportMetric(float64(misses), "sim-dtlb-misses")
}

// --- Extension benchmarks ---

func BenchmarkExtensionsTables(b *testing.B) { benchExperiment(b, "extensions") }
func BenchmarkDaemonStorm(b *testing.B)      { benchExperiment(b, "daemons") }

func BenchmarkSerializedIPIContention(b *testing.B) {
	var makespan uint64
	for i := 0; i < b.N; i++ {
		makespan = workload.RunContention(workload.ContentionConfig{
			Mode: workload.Safe, Core: core.Config{SerializedIPIs: true},
			Initiators: 4, Iterations: 10, Seed: uint64(i + 1),
		})
	}
	b.ReportMetric(float64(makespan), "sim-makespan-cycles")
}

func BenchmarkLazyRemoteShootdown(b *testing.B) {
	var r workload.LazyProbeResult
	for i := 0; i < b.N; i++ {
		r = workload.RunLazyProbe(workload.Template{}, workload.Safe, core.Config{LazyRemote: true}, uint64(i+1))
	}
	b.ReportMetric(float64(r.MadviseCycles), "sim-madvise-cycles")
}

func BenchmarkHWMessageIPI(b *testing.B) {
	var r workload.HWMessageProbeResult
	for i := 0; i < b.N; i++ {
		r = workload.RunHWMessageProbe(workload.Template{}, true, uint64(i+1))
	}
	b.ReportMetric(float64(r.Transfers), "sim-cacheline-transfers")
}

func BenchmarkParavirtFractureHint(b *testing.B) {
	var r workload.ParavirtProbeResult
	for i := 0; i < b.N; i++ {
		r = workload.RunParavirtProbe(workload.Template{}, true, 16, uint64(i+1))
	}
	b.ReportMetric(float64(r.MadviseCycles), "sim-madvise-cycles")
}
