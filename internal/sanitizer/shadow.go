package sanitizer

import (
	"fmt"
	"sort"
	"strings"

	"shootdown/internal/mm"
	"shootdown/internal/pagetable"
	"shootdown/internal/tlb"
)

// shadow is the checker's ground-truth copy of one address space's leaf
// page tables, maintained from the table's Changed hook. Two maps because a
// 4K and a 2M leaf can never cover the same address simultaneously (the
// radix tree holds either a PT or a huge PD entry).
type shadow struct {
	as  *mm.AddressSpace
	p4k map[uint64]pagetable.PTE
	p2m map[uint64]pagetable.PTE
}

// newShadow seeds the shadow from the current page-table contents, so
// address spaces populated before the checker saw them (fork children get
// their leaves copied before ASCreated fires) start consistent.
func newShadow(as *mm.AddressSpace) *shadow {
	sh := &shadow{
		as:  as,
		p4k: make(map[uint64]pagetable.PTE),
		p2m: make(map[uint64]pagetable.PTE),
	}
	as.PT.Leaves(func(tr pagetable.Translation) {
		pte := pagetable.PTE{Frame: tr.Frame, Flags: tr.Flags}
		if tr.Size == pagetable.Size2M {
			sh.p2m[tr.VA] = pte
		} else {
			sh.p4k[tr.VA] = pte
		}
	})
	return sh
}

// apply folds one observed page-table change into the shadow.
func (sh *shadow) apply(ch pagetable.Change) {
	m := sh.p4k
	if ch.Size == pagetable.Size2M {
		m = sh.p2m
	}
	if ch.New.Flags.Has(pagetable.Present) {
		m[ch.VA] = ch.New
	} else {
		delete(m, ch.VA)
	}
}

// leafAt returns the shadow leaf covering va, if any.
func (sh *shadow) leafAt(va uint64) (pagetable.PTE, pagetable.Size, bool) {
	if pte, ok := sh.p2m[va&^uint64(pagetable.PageSize2M-1)]; ok {
		return pte, pagetable.Size2M, true
	}
	if pte, ok := sh.p4k[va&^uint64(pagetable.PageSize4K-1)]; ok {
		return pte, pagetable.Size4K, true
	}
	return pagetable.PTE{}, pagetable.Size4K, false
}

// contradicts compares a TLB entry that just produced a hit for va against
// the shadow. An empty reason means the cached translation agrees with the
// current page tables (or is harmlessly weaker: fewer permissions than the
// PTE grants never breaks coherence, it only costs a spurious fault).
func (sh *shadow) contradicts(va uint64, e tlb.Entry) (reason, shadowDesc string) {
	pte, size, ok := sh.leafAt(va)
	if !ok {
		return "translates memory that is no longer mapped", "<none>"
	}
	shadowDesc = fmt.Sprintf("va %#x frame %#x size %s flags %s",
		va&^(size.Bytes()-1), pte.Frame, size, pte.Flags)
	entryPA := e.Frame<<pagetable.PageShift4K + (va & (e.Size.Bytes() - 1))
	shadowPA := pte.Frame<<pagetable.PageShift4K + (va & (size.Bytes() - 1))
	switch {
	case entryPA != shadowPA:
		return fmt.Sprintf("translates to PA %#x but the page tables map PA %#x", entryPA, shadowPA), shadowDesc
	case e.Flags.Has(pagetable.Write) && !pte.Flags.Has(pagetable.Write):
		return "caches write permission on a page the PTE maps read-only", shadowDesc
	case !e.Flags.Has(pagetable.NX) && pte.Flags.Has(pagetable.NX):
		return "caches execute permission on a page the PTE maps NX", shadowDesc
	case pte.Flags.Has(pagetable.ProtNone) && !e.Flags.Has(pagetable.ProtNone):
		return "caches an accessible translation for a prot-none (NUMA hint) page", shadowDesc
	}
	return "", shadowDesc
}

// diffAgainstPT cross-validates the shadow against the real page table and
// returns a description of the first few mismatches ("" when identical).
func (sh *shadow) diffAgainstPT() string {
	type leaf struct {
		pte  pagetable.PTE
		size pagetable.Size
	}
	real := make(map[uint64]leaf)
	sh.as.PT.Leaves(func(tr pagetable.Translation) {
		real[tr.VA] = leaf{pagetable.PTE{Frame: tr.Frame, Flags: tr.Flags}, tr.Size}
	})
	var diffs []string
	check := func(m map[uint64]pagetable.PTE, size pagetable.Size) {
		for va, pte := range m {
			r, ok := real[va]
			switch {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("  shadow has %s leaf at %#x (frame %#x flags %s), page table does not", size, va, pte.Frame, pte.Flags))
			case r.size != size || r.pte != pte:
				diffs = append(diffs, fmt.Sprintf("  leaf at %#x: shadow %s frame %#x flags %s, page table %s frame %#x flags %s",
					va, size, pte.Frame, pte.Flags, r.size, r.pte.Frame, r.pte.Flags))
			default:
				delete(real, va)
			}
		}
	}
	check(sh.p4k, pagetable.Size4K)
	check(sh.p2m, pagetable.Size2M)
	for va, r := range real {
		if _, ok := sh.p4k[va]; ok {
			continue // already reported as mismatch
		}
		if _, ok := sh.p2m[va]; ok {
			continue
		}
		diffs = append(diffs, fmt.Sprintf("  page table has %s leaf at %#x (frame %#x flags %s), shadow does not", r.size, va, r.pte.Frame, r.pte.Flags))
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 8 {
		diffs = append(diffs[:8], fmt.Sprintf("  ... and %d more", len(diffs)-8))
	}
	return strings.Join(diffs, "\n")
}
