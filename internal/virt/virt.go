// Package virt models hardware-assisted nested paging (EPT): a guest page
// table translating guest-virtual to guest-physical addresses, composed
// with a host table translating guest-physical to host-physical.
//
// Its purpose in this repository is the paper's §7 "page fracturing"
// finding (Table 4): the TLB caches combined GVA→HPA translations, so a
// 2 MiB guest page backed by 4 KiB host pages fractures into many 4 KiB
// TLB entries, and — as Intel confirmed to the authors — once any such
// fractured translation may be cached, a *selective* flush escalates to a
// full TLB flush.
package virt

import (
	"fmt"

	"shootdown/internal/pagetable"
	"shootdown/internal/tlb"
)

// NestedPT composes a guest page table with a host (EPT) table.
type NestedPT struct {
	// Guest maps GVA -> GPA.
	Guest *pagetable.Table
	// Host maps GPA -> HPA (the extended page table).
	Host *pagetable.Table
}

// New returns an empty nested configuration.
func New() *NestedPT {
	return &NestedPT{Guest: pagetable.New(), Host: pagetable.New()}
}

// Combined is the result of a two-dimensional walk.
type Combined struct {
	// VA is the base of the effective page (the smaller of the two leaf
	// sizes).
	VA uint64
	// Frame is the host-physical frame backing VA.
	Frame uint64
	// Flags is the intersection of guest and host permissions.
	Flags pagetable.Flags
	// Size is the effective page size cached in the TLB.
	Size pagetable.Size
	// Fractured is set when the guest leaf is 2 MiB but the host backing
	// is 4 KiB: the translation is one fragment of a fractured guest page.
	Fractured bool
	// Steps counts table levels visited across both dimensions (walk cost
	// scales with it under nested paging).
	Steps int
}

// Walk performs the two-dimensional page walk for gva.
func (n *NestedPT) Walk(gva uint64) (Combined, error) {
	gtr, err := n.Guest.Walk(gva)
	if err != nil {
		return Combined{}, fmt.Errorf("virt: guest walk: %w", err)
	}
	gpa := gtr.PA(gva)
	htr, err := n.Host.Walk(gpa)
	if err != nil {
		return Combined{}, fmt.Errorf("virt: host walk of gpa %#x: %w", gpa, err)
	}
	c := Combined{
		Flags: gtr.Flags & htr.Flags,
		// In a real 2D walk every guest level is itself translated
		// through the EPT; steps ≈ guest*(host+1).
		Steps: gtr.Steps * (htr.Steps + 1),
	}
	switch {
	case gtr.Size == pagetable.Size2M && htr.Size == pagetable.Size2M:
		// The combined leaf stays 2 MiB: the HPA base is the host leaf's
		// translation of the guest page's GPA base.
		c.Size = pagetable.Size2M
		c.VA = gva &^ (pagetable.PageSize2M - 1)
		c.Frame = htr.PA(gpa&^uint64(pagetable.PageSize2M-1)) >> pagetable.PageShift4K
	default:
		// Effective 4K entry.
		c.Size = pagetable.Size4K
		c.VA = gva &^ (pagetable.PageSize4K - 1)
		c.Frame = htr.PA(gpa&^uint64(pagetable.PageSize4K-1)) >> pagetable.PageShift4K
		c.Fractured = gtr.Size == pagetable.Size2M && htr.Size == pagetable.Size4K
	}
	return c, nil
}

// Entry converts a combined translation to a TLB entry.
func (c Combined) Entry() tlb.Entry {
	return tlb.Entry{
		VA: c.VA, Frame: c.Frame, Flags: c.Flags, Size: c.Size,
		Fractured: c.Fractured,
	}
}

// BuildLinear populates guest and host tables for a linear region of
// `bytes` starting at gva 0 and gpa 0, with the given guest and host page
// sizes. It returns the number of guest leaf pages mapped. The guest
// layout is the identity (GPA == GVA); host frames are assigned
// sequentially from halloc.
func (n *NestedPT) BuildLinear(bytes uint64, guestSize, hostSize pagetable.Size, halloc *pagetable.FrameAlloc) (int, error) {
	gstep := guestSize.Bytes()
	for va := uint64(0); va < bytes; va += gstep {
		// GPA == GVA (identity guest-physical layout).
		frame := va >> pagetable.PageShift4K
		if err := n.Guest.Map(va, frame, guestSize, pagetable.Write|pagetable.User); err != nil {
			return 0, err
		}
	}
	hstep := hostSize.Bytes()
	for gpa := uint64(0); gpa < bytes; gpa += hstep {
		if hostSize == pagetable.Size2M {
			base := halloc.AllocContig(512)
			if err := n.Host.Map(gpa, base, pagetable.Size2M, pagetable.Write|pagetable.User); err != nil {
				return 0, err
			}
		} else {
			if err := n.Host.Map(gpa, halloc.Alloc(), pagetable.Size4K, pagetable.Write|pagetable.User); err != nil {
				return 0, err
			}
		}
	}
	return int(bytes / gstep), nil
}
