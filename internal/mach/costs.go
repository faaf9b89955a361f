package mach

// CostModel holds the latency, in cycles, of every hardware primitive the
// simulation charges for. The defaults are calibrated to the paper's
// testbed (Skylake-era Xeon, 2.0 GHz):
//
//   - a local INVLPG costs ≈200 cycles (§2.2, [7,17] in the paper);
//   - INVPCID in individual-address mode is slower than INVLPG (§3.4, [23]);
//   - IPI delivery "often takes more time (potentially over 1000 cycles)
//     than TLB flushing (~200 cycles per entry)" (§3.2);
//   - a whole shootdown takes "on the order of several thousand cycles"
//     with an x2APIC in cluster mode (§2.3.2).
//
// Absolute values are approximations; the experiments in this repository
// reproduce the paper's relative effects, which depend on the ordering and
// overlap of these costs rather than their exact magnitudes.
type CostModel struct {
	// FreqHz is the simulated clock frequency, used only to convert
	// cycle counts to wall-clock figures in workload reports.
	FreqHz uint64

	// --- Cacheline movement (see internal/cache) ---

	// L1Hit is a load/store hit in the local L1.
	L1Hit uint64
	// SMTTransfer moves a line between SMT siblings (shared L1/L2).
	SMTTransfer uint64
	// SocketTransfer moves a line between cores of one socket (LLC snoop).
	SocketTransfer uint64
	// CrossTransfer moves a line across the socket interconnect.
	CrossTransfer uint64
	// AtomicRMW is the extra cost of a locked read-modify-write.
	AtomicRMW uint64
	// Lfence is a serializing load fence (used by the Spectre-v1 guard on
	// the in-context flush loop, §3.4).
	Lfence uint64

	// --- TLB manipulation ---

	// Invlpg invalidates one PTE of the current address space (§3.4).
	Invlpg uint64
	// InvpcidSingle invalidates one PTE of a non-current address space;
	// measurably slower than INVLPG on Skylake (§3.4).
	InvpcidSingle uint64
	// CR3WriteFlush writes CR3 without the NOFLUSH bit: switches (or
	// reloads) the address space and fully flushes its non-global entries.
	CR3WriteFlush uint64
	// CR3WriteNoFlush writes CR3 with the NOFLUSH bit set (PCID preserved).
	CR3WriteNoFlush uint64
	// PageWalkPWCHit is a TLB miss resolved with page-walk-cache help.
	PageWalkPWCHit uint64
	// PageWalkFull is a TLB miss requiring a full 4-level walk.
	PageWalkFull uint64
	// PageWalkNestedFactor multiplies walk costs under nested paging
	// (guest walks through EPT take up to 6x the steps).
	PageWalkNestedFactor uint64

	// --- IPIs and interrupts ---

	// IPIWriteICR is the initiator-side cost of one ICR write; x2APIC
	// cluster mode needs one write per 16-CPU cluster touched (§2.2).
	IPIWriteICR uint64
	// IPIDeliverSMT/Socket/Cross is the wire latency from ICR write to the
	// target core beginning interrupt dispatch.
	IPIDeliverSMT    uint64
	IPIDeliverSocket uint64
	IPIDeliverCross  uint64
	// IRQEntryKernel is interrupt dispatch when the target runs kernel code.
	IRQEntryKernel uint64
	// IRQEntryUser is interrupt dispatch when the target runs user code
	// (mode switch, register save), before any PTI surcharge.
	IRQEntryUser uint64
	// IRQExit is the IRET path back to the interrupted context.
	IRQExit uint64
	// NMIHandler is the body of the NMI handler, including the
	// nmi_uaccess_okay check the paper extends (§3.2); the handler is
	// already expensive, so the added check is negligible.
	NMIHandler uint64
	// IPIAckTimeout is the initiator's patience while waiting for
	// shootdown acknowledgements before suspecting a lost or stalled kick
	// and re-sending it (smp.Layer.AckTimeout doubles it per retry, for
	// both tiers). Only consulted when a fault plane arms the recovery
	// path; several times the worst-case delivery + drain latency so it
	// never fires on a healthy machine.
	IPIAckTimeout uint64

	// --- Kernel entry/exit ---

	// SyscallEntry/SyscallExit are the base (no-PTI) costs.
	SyscallEntry uint64
	SyscallExit  uint64
	// PTITrampoline is the extra entry/exit cost with page-table isolation
	// on: the CR3 switch plus the entry trampoline (§2.1). Charged once on
	// entry and once on exit, for syscalls, faults and interrupts that
	// arrive from user mode.
	PTITrampoline uint64

	// --- Kernel software work ---

	// PageFaultEntry is exception dispatch for a page fault (before PTI
	// surcharge).
	PageFaultEntry uint64
	// PTEUpdate is updating one PTE plus accounting (rmap, mmu_gather).
	PTEUpdate uint64
	// VMAFind is locating the VMA for an address.
	VMAFind uint64
	// SyscallWork is fixed bookkeeping in a memory syscall beyond the
	// entry/exit and per-PTE costs.
	SyscallWork uint64
	// CopyPage4K copies a 4 KiB page (CoW break).
	CopyPage4K uint64
	// CopyPage2M copies or zeroes a 2 MiB page (huge-page populate and
	// khugepaged collapse).
	CopyPage2M uint64
	// RWSemUncontended acquires/releases an uncontended rw-semaphore.
	RWSemUncontended uint64
	// SpinPoll is one iteration of a spin-wait loop (pause + branch),
	// excluding cacheline costs which the cache model charges.
	SpinPoll uint64
	// UserWrite is the user-visible store that the CoW optimization issues
	// from kernel context instead of a flush (§4.1); an atomic no-op RMW.
	UserWrite uint64
}

// DefaultCosts returns the calibrated cost model used by all experiments.
func DefaultCosts() *CostModel {
	return &CostModel{
		FreqHz: 2_000_000_000,

		L1Hit:          4,
		SMTTransfer:    18,
		SocketTransfer: 70,
		CrossTransfer:  190,
		AtomicRMW:      22,
		Lfence:         28,

		Invlpg:               220,
		InvpcidSingle:        310,
		CR3WriteFlush:        270,
		CR3WriteNoFlush:      240,
		PageWalkPWCHit:       40,
		PageWalkFull:         130,
		PageWalkNestedFactor: 4,

		IPIWriteICR:      140,
		IPIDeliverSMT:    620,
		IPIDeliverSocket: 790,
		IPIDeliverCross:  1150,
		IRQEntryKernel:   320,
		IRQEntryUser:     550,
		IRQExit:          380,
		NMIHandler:       900,
		IPIAckTimeout:    40_000,

		SyscallEntry:  90,
		SyscallExit:   110,
		PTITrampoline: 290,

		PageFaultEntry:   420,
		PTEUpdate:        90,
		VMAFind:          60,
		SyscallWork:      450,
		CopyPage4K:       1050,
		CopyPage2M:       65000,
		RWSemUncontended: 40,
		SpinPoll:         10,
		UserWrite:        30,
	}
}

// TransferCost returns the cacheline transfer cost for a distance class.
func (c *CostModel) TransferCost(d Distance) uint64 {
	switch d {
	case DistSelf:
		return c.L1Hit
	case DistSMT:
		return c.SMTTransfer
	case DistSocket:
		return c.SocketTransfer
	default:
		return c.CrossTransfer
	}
}

// IPIDeliverCost returns the IPI wire latency for a distance class.
func (c *CostModel) IPIDeliverCost(d Distance) uint64 {
	switch d {
	case DistSelf, DistSMT:
		return c.IPIDeliverSMT
	case DistSocket:
		return c.IPIDeliverSocket
	default:
		return c.IPIDeliverCross
	}
}
