package shootdown

import (
	"shootdown/internal/daemons"
	"shootdown/internal/mm"
)

// This file exposes the kernel memory-management daemons (internal/daemons)
// and huge-page operations through the public API, so downstream code can
// reproduce the paper's §2.1 flush sources — memory deduplication,
// huge-page compaction, reclamation and NUMA migration — against its own
// workloads.

// DaemonStats re-exports the daemon action counters.
type DaemonStats = daemons.Stats

// Daemon is a handle to a running kernel daemon.
type Daemon = daemons.Daemon

// MMapHuge creates an anonymous mapping backed by 2 MiB pages. Length
// must be a multiple of 2 MiB.
func (t *Thread) MMapHuge(length uint64, prot Prot) (*mm.VMA, error) {
	as := t.proc.as
	t.ctx.EnterSyscall()
	defer t.ctx.ExitSyscall()
	t.ctx.CPU.DownWrite(t.ctx.P, as.MmapSem)
	defer as.MmapSem.UpWrite(t.ctx.P)
	t.ctx.P.Delay(t.ctx.K.Cost.SyscallWork)
	return as.MMapHuge(length, prot)
}

// StartKhugepaged runs a huge-page compaction daemon over v on cpu: every
// interval cycles it collapses fully-populated 2 MiB regions of small
// anonymous pages, shooting down the stale translations (with early acks
// suppressed, since collapse frees page-table pages).
func (m *Machine) StartKhugepaged(p *Process, v *mm.VMA, cpu CPU, interval uint64, rounds int) *Daemon {
	return daemons.Khugepaged(m.w.K, cpu, p.as, v, interval, rounds)
}

// StartKsmd runs a memory-deduplication daemon on cpu. candidates
// nominates pairs of equal-content anonymous pages to merge (the
// simulation does not model page contents).
func (m *Machine) StartKsmd(p *Process, candidates func() (va1, va2 uint64, ok bool), cpu CPU, interval uint64, rounds int) *Daemon {
	return daemons.Ksmd(m.w.K, cpu, p.as, candidates, interval, rounds)
}

// StartKswapd runs a reclaim daemon on cpu, evicting up to batch clean
// page-cache mappings of file per sweep.
func (m *Machine) StartKswapd(p *Process, file *mm.File, cpu CPU, batch int, interval uint64, rounds int) *Daemon {
	return daemons.Kswapd(m.w.K, cpu, p.as, file, batch, interval, rounds)
}

// StartNumaBalancer runs a NUMA-balancing daemon on cpu over v,
// alternating ProtNone hint rounds (change_prot_numa) with migration
// rounds.
func (m *Machine) StartNumaBalancer(p *Process, v *mm.VMA, cpu CPU, migrate int, interval uint64, rounds int) *Daemon {
	return daemons.NumaBalancer(m.w.K, cpu, p.as, v, migrate, interval, rounds)
}
