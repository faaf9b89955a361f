package workload

import (
	"shootdown/internal/core"
	"shootdown/internal/daemons"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/sim"
	"shootdown/internal/syscalls"
)

// DaemonStormConfig drives the daemon-pressure workload: application
// threads compute over anonymous, huge-candidate and file-backed memory
// while ksmd, khugepaged, kswapd and the NUMA balancer mutate their page
// tables — the §2.1 flush sources beyond system calls.
type DaemonStormConfig struct {
	Base Template
	Mode Mode
	Core core.Config
	// AppThreads work on socket-0 CPUs.
	AppThreads int
	// Rounds is the app work-loop count per thread.
	Rounds int
	Seed   uint64
}

// DaemonStormResult reports the app makespan and per-daemon activity.
type DaemonStormResult struct {
	Makespan uint64
	Khuge    daemons.Stats
	Ksm      daemons.Stats
	Kswap    daemons.Stats
	Numa     daemons.Stats
	// Shootdowns is the machine-wide shootdown count.
	Shootdowns uint64
}

// RunDaemonStorm executes the workload.
func RunDaemonStorm(cfg DaemonStormConfig) DaemonStormResult {
	if cfg.AppThreads <= 0 {
		cfg.AppThreads = 4
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 60
	}
	w := cfg.Base.boot(cfg.Mode, cfg.Core, cfg.Seed)
	defer w.Close()
	k := w.K
	as := k.NewAddressSpace()
	file := k.NewFile("cache", 128*pg)

	var anonV, hugeV, fileV *mm.VMA
	ready := 0
	finished := 0
	var startAt, endAt sim.Time
	var res DaemonStormResult

	const hugeRegion = pagetable.PageSize2M
	appCPU := func(i int) mach.CPU { return mach.CPU(i) }

	for i := 0; i < cfg.AppThreads; i++ {
		i := i
		rng := sim.NewRand(cfg.Seed*48271 + uint64(i))
		task := &kernel.Task{Name: "app", MM: as, Fn: func(ctx *kernel.Ctx) {
			if i == 0 {
				var err error
				if anonV, err = syscalls.MMap(ctx, 64*pg, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
					panic(err)
				}
				if hugeV, err = ctx.MM().MMapFixed(512*hugeRegion, hugeRegion, mm.ProtRead|mm.ProtWrite, mm.Anon, nil, 0); err != nil {
					panic(err)
				}
				if fileV, err = syscalls.MMap(ctx, 128*pg, mm.ProtRead|mm.ProtWrite, mm.FileShared, file, 0); err != nil {
					panic(err)
				}
				for j := uint64(0); j < 64; j++ {
					ctx.Touch(anonV.Start+j*pg, mm.AccessWrite)
				}
				for off := uint64(0); off < hugeRegion; off += pg {
					ctx.Touch(hugeV.Start+off, mm.AccessWrite)
				}
				for j := uint64(0); j < 128; j++ {
					ctx.Touch(fileV.Start+j*pg, mm.AccessRead)
				}
			}
			ready++
			ctx.SpinUntil(func() bool { return ready >= cfg.AppThreads && fileV != nil }, 2000)
			if startAt == 0 {
				startAt = ctx.P.Now()
			}
			for r := 0; r < cfg.Rounds; r++ {
				ctx.UserRun(6000)
				ctx.Touch(anonV.Start+rng.Uint64n(64)*pg, mm.AccessWrite)
				ctx.Touch(fileV.Start+rng.Uint64n(128)*pg, mm.AccessRead)
				ctx.Touch(hugeV.Start+rng.Uint64n(512)*pg, mm.AccessRead)
			}
			finished++
			if finished == cfg.AppThreads {
				endAt = ctx.P.Now()
			}
		}}
		k.CPU(appCPU(i)).Spawn(task)
	}

	// Daemons run on dedicated socket-0 CPUs above the app threads.
	base := cfg.AppThreads
	nominated := 0
	w.Eng.Go("spawn-daemons", func(p *sim.Proc) {
		for fileV == nil || ready < cfg.AppThreads {
			p.Delay(20_000)
		}
		dk := daemons.Khugepaged(k, mach.CPU(base), as, hugeV, 80_000, 3)
		ds := daemons.Ksmd(k, mach.CPU(base+1), as, func() (uint64, uint64, bool) {
			if nominated >= 8 {
				return 0, 0, false
			}
			j := uint64(nominated * 2)
			nominated++
			return anonV.Start + j*pg, anonV.Start + (j+1)*pg, true
		}, 60_000, 3)
		dw := daemons.Kswapd(k, mach.CPU(base+2), as, file, 24, 90_000, 4)
		dn := daemons.NumaBalancer(k, mach.CPU(base+3), as, anonV, 6, 70_000, 6)
		// Collect stats once all daemons finish.
		w.Eng.Go("collect", func(p *sim.Proc) {
			dk.Task.Join(p)
			ds.Task.Join(p)
			dw.Task.Join(p)
			dn.Task.Join(p)
			res.Khuge = dk.Stats()
			res.Ksm = ds.Stats()
			res.Kswap = dw.Stats()
			res.Numa = dn.Stats()
		})
	})
	w.Eng.Run()
	res.Makespan = uint64(endAt - startAt)
	res.Shootdowns = w.F.Stats().Shootdowns
	return res
}
