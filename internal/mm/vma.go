// Package mm implements the simulated kernel's memory-management layer:
// address spaces (mm_struct), virtual memory areas, a page cache for
// memory-mapped files, demand faulting with copy-on-write and shared-file
// dirty tracking, and the TLB-generation bookkeeping that Linux's flush
// logic (arch/x86/mm/tlb.c) relies on.
//
// The package is mechanism-only: its functions mutate page tables and
// bookkeeping and report what happened (pages populated, pages copied,
// flush ranges); the kernel and shootdown layers decide what those events
// cost and which TLBs must be invalidated.
package mm

import (
	"errors"
	"fmt"
	"sort"

	"shootdown/internal/pagetable"
)

// Prot is a VMA's access permissions.
type Prot uint8

const (
	// ProtRead allows loads.
	ProtRead Prot = 1 << iota
	// ProtWrite allows stores.
	ProtWrite
	// ProtExec allows instruction fetches.
	ProtExec
)

// Has reports whether all bits in want are set.
func (p Prot) Has(want Prot) bool { return p&want == want }

// String renders the protection in rwx form.
func (p Prot) String() string {
	b := []byte{'-', '-', '-'}
	if p.Has(ProtRead) {
		b[0] = 'r'
	}
	if p.Has(ProtWrite) {
		b[1] = 'w'
	}
	if p.Has(ProtExec) {
		b[2] = 'x'
	}
	return string(b)
}

// Kind classifies a mapping's backing.
type Kind uint8

const (
	// Anon is anonymous memory (demand-zero).
	Anon Kind = iota
	// FileShared maps the page cache directly; stores dirty the file.
	FileShared
	// FilePrivate maps the page cache copy-on-write.
	FilePrivate
)

// String names the mapping kind.
func (k Kind) String() string {
	switch k {
	case Anon:
		return "anon"
	case FileShared:
		return "file-shared"
	case FilePrivate:
		return "file-private"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// VMA is one contiguous virtual memory area of an address space.
type VMA struct {
	// Start and End delimit the area: [Start, End), page aligned.
	Start, End uint64
	// Prot is the current protection.
	Prot Prot
	// Kind is the backing class.
	Kind Kind
	// File backs FileShared/FilePrivate mappings.
	File *File
	// FileOff is the file offset corresponding to Start.
	FileOff uint64
	// HugePages marks an anonymous VMA backed by 2 MiB pages.
	HugePages bool
}

// Len returns the VMA length in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

// Contains reports whether va falls inside the VMA.
func (v *VMA) Contains(va uint64) bool { return va >= v.Start && va < v.End }

// fileOffsetOf maps va to its backing-file offset.
func (v *VMA) fileOffsetOf(va uint64) uint64 { return v.FileOff + (va - v.Start) }

// ownsFrame reports whether frame, mapped at va inside v, is private to
// the mapping mm (anonymous or a CoW copy) rather than a shared
// page-cache frame.
func (v *VMA) ownsFrame(va, frame uint64) bool {
	switch v.Kind {
	case Anon:
		return true
	case FilePrivate:
		cached, ok := v.File.frames[v.fileOffsetOf(va)/pagetable.PageSize4K]
		return !ok || cached != frame
	default:
		return false
	}
}

// Errors reported by the mm layer.
var (
	// ErrNoVMA is a fault on an unmapped address (SIGSEGV).
	ErrNoVMA = errors.New("mm: no VMA covers address")
	// ErrProt is an access violating the VMA protection.
	ErrProt = errors.New("mm: protection violation")
	// ErrOverlap is a fixed-address map over an existing VMA.
	ErrOverlap = errors.New("mm: mapping overlaps existing VMA")
	// ErrBadRange is a misaligned or empty range.
	ErrBadRange = errors.New("mm: bad address range")
)

// vmaSet is a sorted collection of non-overlapping VMAs.
type vmaSet struct {
	vmas []*VMA // sorted by Start
}

// find returns the VMA containing va, or nil.
func (s *vmaSet) find(va uint64) *VMA {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > va })
	if i < len(s.vmas) && s.vmas[i].Contains(va) {
		return s.vmas[i]
	}
	return nil
}

// overlaps reports whether [start,end) intersects any VMA.
func (s *vmaSet) overlaps(start, end uint64) bool {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].End > start })
	return i < len(s.vmas) && s.vmas[i].Start < end
}

// insert adds a VMA, keeping order. The caller ensures no overlap.
func (s *vmaSet) insert(v *VMA) {
	i := sort.Search(len(s.vmas), func(i int) bool { return s.vmas[i].Start >= v.Start })
	s.vmas = append(s.vmas, nil)
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
}

// removeRange deletes VMA coverage of [start,end), splitting VMAs that
// straddle the boundary. It returns the removed pieces.
func (s *vmaSet) removeRange(start, end uint64) []*VMA {
	var removed []*VMA
	var kept []*VMA
	for _, v := range s.vmas {
		switch {
		case v.End <= start || v.Start >= end:
			kept = append(kept, v)
		case v.Start >= start && v.End <= end:
			removed = append(removed, v)
		default:
			// Partial overlap: split.
			if v.Start < start {
				left := *v
				left.End = start
				kept = append(kept, &left)
			}
			if v.End > end {
				right := *v
				right.Start = end
				right.FileOff = v.fileOffsetOf(end)
				kept = append(kept, &right)
			}
			mid := *v
			if mid.Start < start {
				mid.FileOff = v.fileOffsetOf(start)
				mid.Start = start
			}
			if mid.End > end {
				mid.End = end
			}
			removed = append(removed, &mid)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	s.vmas = kept
	return removed
}

// all returns the VMAs in address order.
func (s *vmaSet) all() []*VMA { return s.vmas }

func pageAligned(x uint64) bool { return x&(pagetable.PageSize4K-1) == 0 }
