package mm

import (
	"fmt"

	"shootdown/internal/mach"
	"shootdown/internal/pagetable"
	"shootdown/internal/race"
	"shootdown/internal/tlb"
)

// ID identifies an address space.
type ID uint32

// FlushRange describes TLB invalidation work produced by an mm operation.
// The shootdown layer turns it into local flushes and IPIs.
type FlushRange struct {
	// Start and End delimit the virtual range to invalidate.
	Start, End uint64
	// Stride is the page size of the PTEs in the range.
	Stride pagetable.Size
	// Pages is the number of PTEs actually changed.
	Pages int
	// FreedTables notes that page-table pages were released, which forbids
	// the early-acknowledgement optimization (paper §3.2).
	FreedTables bool
}

// Empty reports whether no invalidation is needed.
func (f FlushRange) Empty() bool { return f.Pages == 0 }

// AddressSpace is the simulated mm_struct: VMAs, page tables, PCIDs, the
// active-CPU mask, and the TLB generation counter Linux's flush logic keys
// off.
type AddressSpace struct {
	// ID is a stable identity for reports.
	ID ID
	// PT holds the authoritative translations.
	PT *pagetable.Table
	// MmapSem serializes address-space changes (mm->mmap_sem).
	MmapSem *RWSem

	// KernelPCID and UserPCID are the two PCIDs PTI assigns to the
	// process: the kernel view (user+kernel mappings) and the user view
	// (user mappings only). Without PTI only KernelPCID is used.
	KernelPCID, UserPCID tlb.PCID

	alloc *pagetable.FrameAlloc
	vmas  vmaSet

	// tlbGen is mm->context.tlb_gen: bumped on every batch of PTE
	// changes; per-CPU state catches up during flushes. Linux accesses it
	// atomically; the race model treats it as an atomic variable.
	tlbGen uint64
	// activeMask is mm_cpumask: CPUs that may hold cached translations.
	// Maintained with atomic bit operations in Linux; atomic here too.
	activeMask mach.CPUMask

	// rt, when non-nil, is the attached happens-before checker; genVar and
	// maskVar are the precomputed variable names it tracks this mm under.
	rt              *race.Detector
	genVar, maskVar string

	mmapCursor uint64
	// lastRemoved holds the VMAs removed by an Unmap in progress, so frame
	// ownership can still be resolved while zapping.
	lastRemoved []*VMA
	// sharedAnon refcounts anonymous frames shared by deduplication (KSM)
	// or fork CoW: frame -> number of PTEs referencing it. Unshared anon
	// frames are absent. The structure is shared between a parent and its
	// forked children, since they reference the same frames.
	sharedAnon *FrameRefs
}

// FrameRefs refcounts frames shared by multiple PTEs (KSM pages, fork CoW
// pages), across the address spaces that share them.
type FrameRefs struct {
	m map[uint64]int
}

// NewFrameRefs returns an empty refcount table.
func NewFrameRefs() *FrameRefs { return &FrameRefs{m: make(map[uint64]int)} }

// Refs returns the shared reference count of frame (0 = unshared).
func (r *FrameRefs) Refs(frame uint64) int { return r.m[frame] }

// Add increases frame's count by n, initializing from base references.
func (r *FrameRefs) Add(frame uint64, n int) { r.m[frame] += n }

// Drop decrements frame's count and reports whether the frame became
// unreferenced (the caller then frees it). Entries exist only while the
// frame has two or more references: when the count falls to one, the
// entry is removed and the surviving reference behaves as a sole owner
// (enabling the do_wp_page reuse fast path).
func (r *FrameRefs) Drop(frame uint64) (free bool) {
	refs, shared := r.m[frame]
	if !shared {
		// Sole reference dropped.
		return true
	}
	if refs <= 2 {
		delete(r.m, frame)
		return false // one reference survives
	}
	r.m[frame] = refs - 1
	return false
}

// Shared reports whether frame has a shared refcount entry.
func (r *FrameRefs) Shared(frame uint64) bool { return r.m[frame] > 0 }

// NewAddressSpace creates an empty address space. Frames come from alloc,
// which is typically shared machine-wide.
func NewAddressSpace(id ID, alloc *pagetable.FrameAlloc, sem *RWSem) *AddressSpace {
	return &AddressSpace{
		ID:         id,
		PT:         pagetable.New(),
		MmapSem:    sem,
		alloc:      alloc,
		tlbGen:     1,
		mmapCursor: 0x0000_1000_0000,
		// PCIDs mirror Linux's scheme: user PCID = kernel PCID | bit 11.
		KernelPCID: tlb.PCID(id&0x3ff) + 1,
		UserPCID:   (tlb.PCID(id&0x3ff) + 1) | 0x800,
		sharedAnon: NewFrameRefs(),
	}
}

// EnableRace attaches the happens-before checker to this address space:
// generation and cpumask accesses become modeled atomics, the mmap_sem
// reports acquire/release edges, and the page table reports PTE accesses.
func (as *AddressSpace) EnableRace(d *race.Detector) {
	if d == nil {
		return
	}
	as.rt = d
	as.genVar = fmt.Sprintf("mm%d.tlb_gen", as.ID)
	as.maskVar = fmt.Sprintf("mm%d.cpumask", as.ID)
	as.MmapSem.EnableRace(d)
	as.PT.EnableRace(d, fmt.Sprintf("mm%d", as.ID))
}

// Gen returns the current TLB generation (atomic_read of tlb_gen).
func (as *AddressSpace) Gen() uint64 {
	as.rt.AtomicLoad(as.genVar)
	return as.tlbGen
}

// BumpGen increments and returns the TLB generation; every operation that
// changes PTEs calls this exactly once before flushing (inc_mm_tlb_gen,
// an atomic increment).
func (as *AddressSpace) BumpGen() uint64 {
	as.rt.AtomicRMW(as.genVar)
	as.tlbGen++
	return as.tlbGen
}

// ActiveCPUs returns the mm_cpumask snapshot. The clone matters: the
// live mask keeps mutating under SetActive/ClearActive, and CPUMask word
// storage has reference semantics, so handing out the field itself would
// let the snapshot change under the caller.
func (as *AddressSpace) ActiveCPUs() mach.CPUMask {
	as.rt.AtomicLoad(as.maskVar)
	return as.activeMask.Clone()
}

// SetActive marks cpu as possibly caching this address space.
func (as *AddressSpace) SetActive(cpu mach.CPU) {
	as.rt.AtomicRMW(as.maskVar)
	as.activeMask.Set(cpu)
}

// ClearActive removes cpu from the mask (on switch-away with a flush).
func (as *AddressSpace) ClearActive(cpu mach.CPU) {
	as.rt.AtomicRMW(as.maskVar)
	as.activeMask.Clear(cpu)
}

// VMAs returns the address-ordered VMA list.
func (as *AddressSpace) VMAs() []*VMA { return as.vmas.all() }

// FindVMA returns the VMA covering va, or nil.
func (as *AddressSpace) FindVMA(va uint64) *VMA { return as.vmas.find(va) }

// MMap creates a VMA of length bytes with the given protection and
// backing, choosing an address. file may be nil for Anon.
func (as *AddressSpace) MMap(length uint64, prot Prot, kind Kind, file *File, fileOff uint64) (*VMA, error) {
	if length == 0 || !pageAligned(length) || !pageAligned(fileOff) {
		return nil, fmt.Errorf("%w: length %#x off %#x", ErrBadRange, length, fileOff)
	}
	start := as.mmapCursor
	for as.vmas.overlaps(start, start+length) {
		start += length // trivial skip; cursors rarely collide in practice
	}
	as.mmapCursor = start + length + pagetable.PageSize4K // guard page
	return as.mmapFixed(start, length, prot, kind, file, fileOff)
}

// MMapFixed creates a VMA at an exact address.
func (as *AddressSpace) MMapFixed(start, length uint64, prot Prot, kind Kind, file *File, fileOff uint64) (*VMA, error) {
	if !pageAligned(start) || length == 0 || !pageAligned(length) || !pageAligned(fileOff) {
		return nil, fmt.Errorf("%w: [%#x,+%#x)", ErrBadRange, start, length)
	}
	if as.vmas.overlaps(start, start+length) {
		return nil, fmt.Errorf("%w: [%#x,+%#x)", ErrOverlap, start, length)
	}
	return as.mmapFixed(start, length, prot, kind, file, fileOff)
}

func (as *AddressSpace) mmapFixed(start, length uint64, prot Prot, kind Kind, file *File, fileOff uint64) (*VMA, error) {
	if kind != Anon && file == nil {
		return nil, fmt.Errorf("mm: file-backed VMA without file")
	}
	if kind == Anon {
		file = nil
	}
	v := &VMA{Start: start, End: start + length, Prot: prot, Kind: kind, File: file, FileOff: fileOff}
	as.vmas.insert(v)
	if file != nil {
		file.addMapper(as)
	}
	return v, nil
}

// Unmap removes [start, start+length): VMAs are deleted, PTEs zapped,
// privately owned frames freed, and empty page-table pages released. The
// returned FlushRange has FreedTables set when table pages were freed
// (munmap semantics).
func (as *AddressSpace) Unmap(start, length uint64) (FlushRange, error) {
	if !pageAligned(start) || length == 0 || !pageAligned(length) {
		return FlushRange{}, fmt.Errorf("%w: [%#x,+%#x)", ErrBadRange, start, length)
	}
	end := start + length
	removedVMAs := as.vmas.removeRange(start, end)
	for _, v := range removedVMAs {
		if v.File != nil {
			v.File.removeMapper(as)
		}
	}
	as.lastRemoved = removedVMAs
	pages, freed := as.zapRange(start, end)
	as.lastRemoved = nil
	return FlushRange{Start: start, End: end, Stride: pagetable.Size4K, Pages: pages, FreedTables: freed}, nil
}

// MadviseDontneed zaps PTEs in [start, start+length) and frees privately
// owned frames, keeping the VMAs (madvise(MADV_DONTNEED) semantics). The
// returned FlushRange never sets FreedTables: Linux's zap path leaves
// page-table pages in place, so early acknowledgement remains safe.
func (as *AddressSpace) MadviseDontneed(start, length uint64) (FlushRange, error) {
	if !pageAligned(start) || length == 0 || !pageAligned(length) {
		return FlushRange{}, fmt.Errorf("%w: [%#x,+%#x)", ErrBadRange, start, length)
	}
	end := start + length
	if as.vmas.find(start) == nil {
		return FlushRange{}, fmt.Errorf("%w: %#x", ErrNoVMA, start)
	}
	pages, _ := as.zapRange(start, end)
	return FlushRange{Start: start, End: end, Stride: pagetable.Size4K, Pages: pages}, nil
}

// zapRange unmaps present leaves in [start, end), freeing frames this mm
// owns (anonymous pages and private CoW copies; never page-cache frames).
func (as *AddressSpace) zapRange(start, end uint64) (pages int, freedTables bool) {
	type leaf struct {
		va, frame uint64
	}
	var leaves []leaf
	as.PT.VisitRange(start, end, func(tr pagetable.Translation) {
		leaves = append(leaves, leaf{tr.VA, tr.Frame})
	})
	for _, l := range leaves {
		owned := as.ownsFrame(l.va, l.frame)
		pte, size, _ := as.PT.Lookup(l.va)
		freed, err := as.PT.Unmap(l.va)
		if err != nil {
			panic(fmt.Sprintf("mm: zap of visited leaf failed: %v", err))
		}
		if owned {
			as.releaseAnonFrame(pte.Frame, size)
		}
		freedTables = freedTables || freed
		pages++
	}
	return pages, freedTables
}

// releaseAnonFrame drops one reference to an anon frame (or huge frame
// run), freeing it when unshared or when the last sharer goes away.
func (as *AddressSpace) releaseAnonFrame(frame uint64, size pagetable.Size) {
	if size == pagetable.Size2M {
		as.alloc.FreeContig(frame, int(pagetable.PageSize2M/pagetable.PageSize4K))
		return
	}
	if as.sharedAnon.Drop(frame) {
		as.alloc.Free(frame)
	}
}

// ownsFrame reports whether the frame mapped at va is private to this mm
// (anonymous or a CoW copy) rather than a shared page-cache frame. Unmap
// removes VMAs before zapping and records them in lastRemoved, so a va
// with no VMA is resolved by the VMA just removed; one in neither is not
// owned.
func (as *AddressSpace) ownsFrame(va, frame uint64) bool {
	if v := as.vmas.find(va); v != nil {
		return v.ownsFrame(va, frame)
	}
	for _, v := range as.lastRemoved {
		if v.Contains(va) {
			return v.ownsFrame(va, frame)
		}
	}
	return false
}

// Protect changes the protection of [start, start+length) to prot,
// updating VMAs (with splits) and present PTEs. The returned FlushRange
// covers the changed PTEs.
func (as *AddressSpace) Protect(start, length uint64, prot Prot) (FlushRange, error) {
	if !pageAligned(start) || length == 0 || !pageAligned(length) {
		return FlushRange{}, fmt.Errorf("%w: [%#x,+%#x)", ErrBadRange, start, length)
	}
	end := start + length
	pieces := as.vmas.removeRange(start, end)
	if len(pieces) == 0 {
		return FlushRange{}, fmt.Errorf("%w: [%#x,+%#x)", ErrNoVMA, start, length)
	}
	for _, v := range pieces {
		v.Prot = prot
		as.vmas.insert(v)
		if v.File != nil {
			v.File.addMapper(as) // keep the mapper refcount balanced
		}
	}
	// Apply to present PTEs.
	var pages int
	as.PT.VisitRange(start, end, func(tr pagetable.Translation) {
		va := tr.VA
		// Write permission is granted lazily (CoW / dirty tracking), so a
		// writable prot sets no Write bit here; only revoking clears it.
		if !prot.Has(ProtWrite) && tr.Flags.Has(pagetable.Write) {
			must(as.PT.ClearFlags(va, pagetable.Write))
		}
		if !prot.Has(ProtExec) {
			must(as.PT.SetFlags(va, pagetable.NX))
		} else {
			must(as.PT.ClearFlags(va, pagetable.NX))
		}
		pages++
	})
	return FlushRange{Start: start, End: end, Stride: pagetable.Size4K, Pages: pages}, nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
