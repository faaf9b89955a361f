// Package pagetable implements x86-64-style 4-level radix page tables with
// 4 KiB and 2 MiB pages.
//
// The tables are "software" page tables: they hold the authoritative
// virtual-to-physical mappings of a simulated address space, are walked on
// TLB misses, and track the Present/Write/User/Accessed/Dirty/Global/NX
// bits the kernel code in this repository manipulates. The package also
// reports when an unmap operation frees intermediate page-table pages,
// which the shootdown protocol needs for the early-acknowledgement
// exception (paper §3.2: early ack is unsafe if page tables are released,
// since speculative page walks could then touch freed memory).
package pagetable

import (
	"errors"
	"fmt"

	"shootdown/internal/race"
)

// Page sizes and radix geometry (x86-64: 48-bit VA, 512-entry tables).
const (
	PageShift4K = 12
	PageSize4K  = 1 << PageShift4K
	PageShift2M = 21
	PageSize2M  = 1 << PageShift2M

	EntriesPerTable = 512
	VABits          = 48
	MaxVA           = uint64(1) << VABits
)

// Flags are PTE permission/status bits, mirroring the x86 layout loosely.
type Flags uint16

const (
	// Present: the mapping is valid.
	Present Flags = 1 << iota
	// Write: the page is writable.
	Write
	// User: the page is accessible from user mode.
	User
	// Accessed: set when the page has been read or written.
	Accessed
	// Dirty: set when the page has been written.
	Dirty
	// Global: survives PCID-tagged full flushes (kernel mappings).
	Global
	// Huge: leaf at the PD level (2 MiB page).
	Huge
	// NX: not executable.
	NX
	// ProtNone: present but inaccessible — the NUMA-balancing hint state
	// (pte_protnone): the next access faults so the kernel can decide to
	// migrate the page.
	ProtNone
)

// Has reports whether all bits in want are set.
func (f Flags) Has(want Flags) bool { return f&want == want }

// String renders the flags in a compact rwxugad-style form.
func (f Flags) String() string {
	pick := func(b Flags, c byte) byte {
		if f.Has(b) {
			return c
		}
		return '-'
	}
	return string([]byte{
		pick(Present, 'p'), pick(Write, 'w'), pick(User, 'u'),
		pick(Accessed, 'a'), pick(Dirty, 'd'), pick(Global, 'g'),
		pick(Huge, 'h'), pick(NX, 'n'), pick(ProtNone, '0'),
	})
}

// Size identifies a leaf page size.
type Size int

const (
	// Size4K is a 4 KiB page mapped at the PT level.
	Size4K Size = iota
	// Size2M is a 2 MiB page mapped at the PD level.
	Size2M
)

// Bytes returns the page size in bytes.
func (s Size) Bytes() uint64 {
	if s == Size2M {
		return PageSize2M
	}
	return PageSize4K
}

// String names the size ("4K" or "2M").
func (s Size) String() string {
	if s == Size2M {
		return "2M"
	}
	return "4K"
}

// PTE is a leaf page-table entry.
type PTE struct {
	// Frame is the physical frame number (physical address >> 12).
	Frame uint64
	// Flags holds the permission and status bits.
	Flags Flags
}

// Translation is the result of a successful page walk.
type Translation struct {
	// VA is the page-aligned virtual address of the leaf.
	VA uint64
	// Frame is the physical frame number of the leaf page.
	Frame uint64
	// Flags are the leaf PTE flags.
	Flags Flags
	// Size is the leaf page size.
	Size Size
	// Steps is the number of table levels visited (for walk cost models).
	Steps int
}

// PA returns the physical address corresponding to va under this
// translation.
func (t Translation) PA(va uint64) uint64 {
	return t.Frame<<PageShift4K + (va & (t.Size.Bytes() - 1))
}

var (
	// ErrNotMapped is returned when no present leaf covers the address.
	ErrNotMapped = errors.New("pagetable: address not mapped")
	// ErrAlreadyMapped is returned by Map when a present leaf exists.
	ErrAlreadyMapped = errors.New("pagetable: address already mapped")
	// ErrMisaligned is returned for addresses not aligned to the page size.
	ErrMisaligned = errors.New("pagetable: misaligned address")
	// ErrOutOfRange is returned for non-canonical (too large) addresses.
	ErrOutOfRange = errors.New("pagetable: address out of range")
)

type node struct {
	ptes     [EntriesPerTable]PTE
	children [EntriesPerTable]*node
	// live counts present leaf entries plus child tables, so empty tables
	// can be detected and freed on unmap.
	live int
}

// Table is a 4-level page table for one address space.
type Table struct {
	root *node
	// tablePages counts allocated page-table pages (excluding the root),
	// so tests can assert tables are actually freed.
	tablePages int
	// leaves counts present leaf entries.
	leaves int
	// free holds table pages released by Unmap for Map to reuse. A page
	// is released only once live drops to 0, when every entry is zero,
	// so it is reused as is.
	free []*node
	obs  func(Change)

	// rt, when non-nil, is the attached happens-before checker; pteVar is
	// the variable name PTE accesses are tracked under. One variable
	// covers the whole table: PTE reads/writes are individually atomic on
	// x86 (ptep_get/set), so the coarse granularity cannot produce false
	// positives — only coarser edges.
	rt     *race.Detector
	pteVar string
}

// Change describes one mutation of a leaf PTE. Old is the zero PTE when
// the leaf did not previously exist; New is the zero PTE when the leaf was
// removed.
type Change struct {
	// VA is the page-aligned address of the mutated leaf.
	VA uint64
	// Size is the leaf page size.
	Size Size
	// Old and New are the leaf PTE before and after the mutation.
	Old, New PTE
}

// SetObserver installs (or, with nil, removes) a callback fired after
// every leaf-PTE mutation (Map, SetFlags, ClearFlags, Remap, Unmap). The
// callback must not mutate the table.
func (t *Table) SetObserver(fn func(Change)) { t.obs = fn }

// EnableRace attaches the happens-before checker; prefix scopes the
// table's variable name (typically the owning mm).
func (t *Table) EnableRace(d *race.Detector, prefix string) {
	if d == nil {
		return
	}
	t.rt = d
	t.pteVar = prefix + ".pte"
}

func (t *Table) notify(va uint64, size Size, old, new PTE) {
	// Every leaf mutation funnels through here: report it as an atomic
	// read-modify-write (native_set_pte and friends are atomic stores;
	// the radix bookkeeping is protected by the callers' mmap_sem).
	t.rt.AtomicRMW(t.pteVar)
	if t.obs != nil {
		t.obs(Change{VA: va &^ (size.Bytes() - 1), Size: size, Old: old, New: new})
	}
}

// raceLoad reports a page-walk-style read of the table.
func (t *Table) raceLoad() { t.rt.AtomicLoad(t.pteVar) }

// New returns an empty page table.
func New() *Table {
	return &Table{root: &node{}}
}

// LeafCount returns the number of present leaf mappings.
func (t *Table) LeafCount() int { return t.leaves }

// TablePages returns the number of allocated non-root table pages.
func (t *Table) TablePages() int { return t.tablePages }

func levelIndex(va uint64, level int) int {
	// level 3 = PML4, 2 = PDPT, 1 = PD, 0 = PT
	return int(va>>(PageShift4K+9*uint(level))) & (EntriesPerTable - 1)
}

func checkVA(va uint64, size Size) error {
	if va >= MaxVA {
		return fmt.Errorf("%w: %#x", ErrOutOfRange, va)
	}
	if va&(size.Bytes()-1) != 0 {
		return fmt.Errorf("%w: %#x (%s)", ErrMisaligned, va, size)
	}
	return nil
}

// Map installs a leaf mapping va -> frame with the given flags and size.
// The Huge flag is managed by the table; callers should not set it.
func (t *Table) Map(va, frame uint64, size Size, flags Flags) error {
	if err := checkVA(va, size); err != nil {
		return err
	}
	leafLevel := 0
	if size == Size2M {
		leafLevel = 1
		flags |= Huge
	}
	n := t.root
	for level := 3; level > leafLevel; level-- {
		idx := levelIndex(va, level)
		if n.children[idx] == nil {
			if n.ptes[idx].Flags.Has(Present) {
				// A huge leaf sits where we need an intermediate table.
				return fmt.Errorf("%w: huge page at %#x", ErrAlreadyMapped, va)
			}
			n.children[idx] = t.newNode()
			n.live++
			t.tablePages++
		}
		n = n.children[idx]
	}
	idx := levelIndex(va, leafLevel)
	if n.ptes[idx].Flags.Has(Present) || n.children[idx] != nil {
		return fmt.Errorf("%w: %#x", ErrAlreadyMapped, va)
	}
	n.ptes[idx] = PTE{Frame: frame, Flags: flags | Present}
	n.live++
	t.leaves++
	t.notify(va, size, PTE{}, n.ptes[idx])
	return nil
}

// newNode returns a zeroed table page, reusing a released one if any.
func (t *Table) newNode() *node {
	k := len(t.free)
	if k == 0 {
		return &node{}
	}
	n := t.free[k-1]
	t.free[k-1] = nil
	t.free = t.free[:k-1]
	return n
}

// Walk translates va. It does not modify Accessed/Dirty bits; the MMU model
// (internal/tlb) decides when to set those via MarkAccessed/MarkDirty.
func (t *Table) Walk(va uint64) (Translation, error) {
	if va >= MaxVA {
		return Translation{}, fmt.Errorf("%w: %#x", ErrOutOfRange, va)
	}
	t.raceLoad()
	n := t.root
	steps := 1
	for level := 3; level >= 0; level-- {
		idx := levelIndex(va, level)
		pte := n.ptes[idx]
		if pte.Flags.Has(Present) {
			size := Size4K
			if pte.Flags.Has(Huge) {
				if level != 1 {
					return Translation{}, fmt.Errorf("pagetable: huge leaf at level %d", level)
				}
				size = Size2M
			} else if level != 0 {
				return Translation{}, fmt.Errorf("pagetable: leaf at level %d without Huge", level)
			}
			return Translation{
				VA:    va &^ (size.Bytes() - 1),
				Frame: pte.Frame,
				Flags: pte.Flags,
				Size:  size,
				Steps: steps,
			}, nil
		}
		child := n.children[idx]
		if child == nil {
			return Translation{}, fmt.Errorf("%w: %#x", ErrNotMapped, va)
		}
		n = child
		steps++
	}
	return Translation{}, fmt.Errorf("%w: %#x", ErrNotMapped, va)
}

// leaf returns the node and index of the present leaf covering va.
func (t *Table) leaf(va uint64) (*node, int, Size, error) {
	n := t.root
	for level := 3; level >= 0; level-- {
		idx := levelIndex(va, level)
		pte := n.ptes[idx]
		if pte.Flags.Has(Present) {
			size := Size4K
			if pte.Flags.Has(Huge) {
				size = Size2M
			}
			return n, idx, size, nil
		}
		if n.children[idx] == nil {
			return nil, 0, 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
		}
		n = n.children[idx]
	}
	return nil, 0, 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
}

// SetFlags ors extra flag bits into the leaf PTE covering va.
func (t *Table) SetFlags(va uint64, add Flags) error {
	n, idx, size, err := t.leaf(va)
	if err != nil {
		return err
	}
	old := n.ptes[idx]
	n.ptes[idx].Flags |= add
	t.notify(va, size, old, n.ptes[idx])
	return nil
}

// ClearFlags removes flag bits from the leaf PTE covering va. Clearing
// Present is rejected; use Unmap.
func (t *Table) ClearFlags(va uint64, remove Flags) error {
	if remove.Has(Present) {
		return errors.New("pagetable: use Unmap to clear Present")
	}
	n, idx, size, err := t.leaf(va)
	if err != nil {
		return err
	}
	old := n.ptes[idx]
	n.ptes[idx].Flags &^= remove
	t.notify(va, size, old, n.ptes[idx])
	return nil
}

// Remap points the leaf covering va at a new frame with new flags,
// preserving the page size. Used by the CoW fault handler.
func (t *Table) Remap(va, frame uint64, flags Flags) error {
	n, idx, size, err := t.leaf(va)
	if err != nil {
		return err
	}
	keep := n.ptes[idx].Flags & Huge
	old := n.ptes[idx]
	n.ptes[idx] = PTE{Frame: frame, Flags: flags | keep | Present}
	t.notify(va, size, old, n.ptes[idx])
	return nil
}

// Lookup returns a copy of the leaf PTE covering va and its size.
func (t *Table) Lookup(va uint64) (PTE, Size, error) {
	t.raceLoad()
	n, idx, size, err := t.leaf(va)
	if err != nil {
		return PTE{}, 0, err
	}
	return n.ptes[idx], size, nil
}

// Unmap removes the leaf mapping at va and returns whether any page-table
// pages were freed in the process (the early-ack safety signal).
func (t *Table) Unmap(va uint64) (freedTables bool, err error) {
	if va >= MaxVA {
		return false, fmt.Errorf("%w: %#x", ErrOutOfRange, va)
	}
	return t.unmapRec(t.root, va, 3)
}

func (t *Table) unmapRec(n *node, va uint64, level int) (freed bool, err error) {
	idx := levelIndex(va, level)
	if n.ptes[idx].Flags.Has(Present) {
		old := n.ptes[idx]
		size := Size4K
		if old.Flags.Has(Huge) {
			size = Size2M
		}
		n.ptes[idx] = PTE{}
		n.live--
		t.leaves--
		t.notify(va, size, old, PTE{})
		return false, nil
	}
	child := n.children[idx]
	if child == nil {
		return false, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	freed, err = t.unmapRec(child, va, level-1)
	if err != nil {
		return freed, err
	}
	if child.live == 0 {
		n.children[idx] = nil
		n.live--
		t.tablePages--
		t.free = append(t.free, child)
		freed = true
	}
	return freed, nil
}

// UnmapRange removes every present leaf in [start, end) and reports the
// number of leaves removed and whether page-table pages were freed.
func (t *Table) UnmapRange(start, end uint64) (removed int, freedTables bool, err error) {
	var leaves []uint64
	t.VisitRange(start, end, func(tr Translation) {
		leaves = append(leaves, tr.VA)
	})
	for _, va := range leaves {
		freed, uerr := t.Unmap(va)
		if uerr != nil {
			return removed, freedTables, uerr
		}
		removed++
		freedTables = freedTables || freed
	}
	return removed, freedTables, nil
}

// VisitRange calls fn for every present leaf whose page intersects
// [start, end), in ascending address order.
func (t *Table) VisitRange(start, end uint64, fn func(Translation)) {
	if end > MaxVA {
		end = MaxVA
	}
	t.raceLoad()
	t.visitRec(t.root, 3, 0, start, end, fn)
}

func (t *Table) visitRec(n *node, level int, base, start, end uint64, fn func(Translation)) {
	span := uint64(1) << (PageShift4K + 9*uint(level))
	for idx := 0; idx < EntriesPerTable; idx++ {
		lo := base + uint64(idx)*span
		hi := lo + span
		if hi <= start || lo >= end {
			continue
		}
		pte := n.ptes[idx]
		if pte.Flags.Has(Present) {
			size := Size4K
			if pte.Flags.Has(Huge) {
				size = Size2M
			}
			fn(Translation{VA: lo, Frame: pte.Frame, Flags: pte.Flags, Size: size, Steps: 4 - level})
			continue
		}
		if child := n.children[idx]; child != nil {
			t.visitRec(child, level-1, lo, start, end, fn)
		}
	}
}
