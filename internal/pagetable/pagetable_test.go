package pagetable

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMapWalkUnmap4K(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 42, Size4K, Write|User); err != nil {
		t.Fatal(err)
	}
	tr, err := pt.Walk(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Frame != 42 || tr.Size != Size4K || tr.VA != 0x1000 {
		t.Fatalf("translation = %+v", tr)
	}
	if !tr.Flags.Has(Present | Write | User) {
		t.Fatalf("flags = %v", tr.Flags)
	}
	if got := tr.PA(0x1234); got != 42<<PageShift4K+0x234 {
		t.Fatalf("PA = %#x", got)
	}
	if tr.Steps != 4 {
		t.Fatalf("steps = %d, want 4", tr.Steps)
	}
	if _, err := pt.Unmap(0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Walk(0x1000); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("walk after unmap: %v", err)
	}
}

// TestNotMappedError pins the walk-miss error: every miss site (Walk at
// the root and below it, the leaf lookup behind SetFlags, Unmap's descent)
// still matches ErrNotMapped, prints exactly the text the formatted error
// printed, and costs at most one allocation, not a formatted string.
func TestNotMappedError(t *testing.T) {
	pt := New()
	if err := pt.Map(0x200000, 7, Size4K, Write); err != nil {
		t.Fatal(err)
	}
	misses := []struct {
		name string
		va   uint64
		miss func(va uint64) error
	}{
		{"walk at root", 0x7f0000001000, func(va uint64) error { _, err := pt.Walk(va); return err }},
		{"walk below root", 0x203000, func(va uint64) error { _, err := pt.Walk(va); return err }},
		{"leaf", 0x7f0000002000, func(va uint64) error { return pt.SetFlags(va, Accessed) }},
		{"unmap", 0x204000, func(va uint64) error { _, err := pt.Unmap(va); return err }},
	}
	for _, m := range misses {
		err := m.miss(m.va)
		if !errors.Is(err, ErrNotMapped) {
			t.Fatalf("%s: %v is not ErrNotMapped", m.name, err)
		}
		if want := fmt.Errorf("%w: %#x", ErrNotMapped, m.va).Error(); err.Error() != want {
			t.Fatalf("%s: Error() = %q, want %q", m.name, err.Error(), want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = m.miss(m.va) }); allocs > 1 {
			t.Fatalf("%s: a miss allocates %v objects, want at most 1", m.name, allocs)
		}
	}
}

func TestMapWalk2M(t *testing.T) {
	pt := New()
	if err := pt.Map(2*PageSize2M, 512, Size2M, Write); err != nil {
		t.Fatal(err)
	}
	tr, err := pt.Walk(2*PageSize2M + 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size != Size2M || !tr.Flags.Has(Huge) {
		t.Fatalf("translation = %+v", tr)
	}
	if tr.Steps != 3 {
		t.Fatalf("steps = %d, want 3 for 2M leaf", tr.Steps)
	}
	if got := tr.PA(2*PageSize2M + 0x12345); got != 512<<PageShift4K+0x12345 {
		t.Fatalf("PA = %#x", got)
	}
}

func TestMapErrors(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1001, 1, Size4K, 0); !errors.Is(err, ErrMisaligned) {
		t.Fatalf("misaligned: %v", err)
	}
	if err := pt.Map(MaxVA, 1, Size4K, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if err := pt.Map(0x1000, 1, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x1000, 2, Size4K, 0); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("double map: %v", err)
	}
	// 4K under an existing 2M leaf fails.
	if err := pt.Map(PageSize2M, 3, Size2M, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(PageSize2M+PageSize4K, 4, Size4K, 0); !errors.Is(err, ErrAlreadyMapped) {
		t.Fatalf("4K under 2M: %v", err)
	}
}

func TestFlagManipulation(t *testing.T) {
	pt := New()
	if err := pt.Map(0x2000, 7, Size4K, Write|User); err != nil {
		t.Fatal(err)
	}
	if err := pt.ClearFlags(0x2000, Write); err != nil {
		t.Fatal(err)
	}
	pte, size, err := pt.Lookup(0x2000)
	if err != nil || size != Size4K {
		t.Fatalf("lookup: %v %v", err, size)
	}
	if pte.Flags.Has(Write) {
		t.Fatal("Write still set after ClearFlags")
	}
	if err := pt.SetFlags(0x2000, Dirty|Accessed); err != nil {
		t.Fatal(err)
	}
	pte, _, _ = pt.Lookup(0x2000)
	if !pte.Flags.Has(Dirty | Accessed) {
		t.Fatal("SetFlags did not apply")
	}
	if err := pt.ClearFlags(0x2000, Present); err == nil {
		t.Fatal("clearing Present must be rejected")
	}
}

func TestRemapForCoW(t *testing.T) {
	pt := New()
	if err := pt.Map(0x3000, 10, Size4K, User); err != nil {
		t.Fatal(err)
	}
	if err := pt.Remap(0x3000, 11, Write|User|Dirty); err != nil {
		t.Fatal(err)
	}
	tr, err := pt.Walk(0x3000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Frame != 11 || !tr.Flags.Has(Write|Dirty|Present) {
		t.Fatalf("after remap: %+v", tr)
	}
}

func TestFreedTables(t *testing.T) {
	pt := New()
	// Two pages sharing one PT.
	if err := pt.Map(0x1000, 1, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x2000, 2, Size4K, 0); err != nil {
		t.Fatal(err)
	}
	if pt.TablePages() != 3 { // PDPT + PD + PT
		t.Fatalf("TablePages = %d, want 3", pt.TablePages())
	}
	freed, err := pt.Unmap(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if freed {
		t.Fatal("unmap of first page freed tables while sibling still mapped")
	}
	freed, err = pt.Unmap(0x2000)
	if err != nil {
		t.Fatal(err)
	}
	if !freed {
		t.Fatal("unmap of last page did not free tables")
	}
	if pt.TablePages() != 0 {
		t.Fatalf("TablePages = %d after full unmap, want 0", pt.TablePages())
	}
	if pt.LeafCount() != 0 {
		t.Fatalf("LeafCount = %d, want 0", pt.LeafCount())
	}
}

// TestFreedTablesAreReused: the table pages an Unmap releases go on the
// free list, and the next Map that needs pages takes them back zeroed,
// with TablePages and the freedTables signal exactly as without reuse.
// Warm map/unmap cycles then allocate nothing.
func TestFreedTablesAreReused(t *testing.T) {
	pt := New()
	if err := pt.Map(0x1000, 1, Size4K, Write); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x2000, 2, Size4K, Write); err != nil {
		t.Fatal(err)
	}
	ptPage := pt.root.children[0].children[0].children[0]
	for _, va := range []uint64{0x1000, 0x2000} {
		if _, err := pt.Unmap(va); err != nil {
			t.Fatal(err)
		}
	}
	if pt.TablePages() != 0 || len(pt.free) != 3 {
		t.Fatalf("after unmap: TablePages = %d, free = %d; want 0, 3", pt.TablePages(), len(pt.free))
	}
	for _, n := range pt.free {
		if *n != (node{}) {
			t.Fatal("released table page is not zero")
		}
	}

	// Map elsewhere: the same three pages come back, with no stale entry.
	const va = 5<<30 | 7<<21 | 3<<12
	if err := pt.Map(va, 9, Size4K, Write); err != nil {
		t.Fatal(err)
	}
	if pt.TablePages() != 3 || len(pt.free) != 0 {
		t.Fatalf("after remap: TablePages = %d, free = %d; want 3, 0", pt.TablePages(), len(pt.free))
	}
	reused := false
	for _, n := range []*node{pt.root.children[0], pt.root.children[0].children[5], pt.root.children[0].children[5].children[7]} {
		reused = reused || n == ptPage
	}
	if !reused {
		t.Fatal("Map allocated a fresh page instead of reusing a released one")
	}
	for _, probe := range []uint64{0x1000, 0x2000, va + PageSize4K} {
		if _, err := pt.Walk(probe); !errors.Is(err, ErrNotMapped) {
			t.Fatalf("walk %#x after reuse: %v, want ErrNotMapped", probe, err)
		}
	}

	// freedTables is reported as before: not while a sibling remains.
	if err := pt.Map(va+PageSize4K, 10, Size4K, Write); err != nil {
		t.Fatal(err)
	}
	if freed, err := pt.Unmap(va); err != nil || freed {
		t.Fatalf("unmap with sibling mapped: freed = %v, err = %v", freed, err)
	}
	if freed, err := pt.Unmap(va + PageSize4K); err != nil || !freed {
		t.Fatalf("unmap of last page: freed = %v, err = %v", freed, err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := pt.Map(va, 9, Size4K, Write); err != nil {
			t.Fatal(err)
		}
		if _, err := pt.Unmap(va); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm map/unmap cycle allocated %v objects, want 0", allocs)
	}
}

func TestUnmapRange(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 8; i++ {
		if err := pt.Map(0x10000+i*PageSize4K, i+1, Size4K, 0); err != nil {
			t.Fatal(err)
		}
	}
	removed, freed, err := pt.UnmapRange(0x10000+2*PageSize4K, 0x10000+5*PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 || freed {
		t.Fatalf("removed=%d freed=%v, want 3,false", removed, freed)
	}
	removed, freed, err = pt.UnmapRange(0, MaxVA)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 || !freed {
		t.Fatalf("removed=%d freed=%v, want 5,true", removed, freed)
	}
}

func TestVisitRangeOrder(t *testing.T) {
	pt := New()
	vas := []uint64{0x7000, 0x1000, PageSize2M * 3, 0x5000}
	for i, va := range vas {
		size := Size4K
		if va >= PageSize2M {
			size = Size2M
		}
		if err := pt.Map(va, uint64(i+1), size, 0); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	pt.VisitRange(0, MaxVA, func(tr Translation) { got = append(got, tr.VA) })
	want := []uint64{0x1000, 0x5000, 0x7000, PageSize2M * 3}
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v", got, want)
		}
	}
}

func TestVisitRangePartialOverlap(t *testing.T) {
	pt := New()
	if err := pt.Map(PageSize2M, 1, Size2M, 0); err != nil {
		t.Fatal(err)
	}
	var n int
	// Range intersecting the middle of the 2M page must still visit it.
	pt.VisitRange(PageSize2M+0x1000, PageSize2M+0x2000, func(Translation) { n++ })
	if n != 1 {
		t.Fatalf("visited %d leaves, want 1", n)
	}
}

// visitScan is the range walk before it was indexed, kept as the
// reference for TestVisitRangeDifferential: it tests all 512 entries of
// every table it visits against [start, end).
func visitScan(n *node, level int, base, start, end uint64, fn func(Translation)) {
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
			visitScan(child, level-1, lo, start, end, fn)
		}
	}
}

// TestVisitRangeDifferential checks the indexed range walk against the
// full scan it replaced (visitScan): seeded tables of random 4K and 2M
// mappings, clustered at the bottom of the address space, around a
// 2 MiB, a 1 GiB and a 512 GiB table boundary and below MaxVA, are
// walked over random ranges — bounds on, beside and between leaves,
// empty and reversed ranges, and ranges that end or start past MaxVA —
// and VisitRange and Leaves must visit the same leaves, in the same
// order, as the scan.
func TestVisitRangeDifferential(t *testing.T) {
	regions := []uint64{0, 5 * PageSize2M, 1 << 30, 1 << 39, MaxVA - 4*PageSize2M}
	var cov struct{ visits, empty, reversed, pastMax int }
	collect := func(walk func(func(Translation))) []Translation {
		var got []Translation
		walk(func(tr Translation) { got = append(got, tr) })
		return got
	}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		var vas []uint64
		for i := rng.Intn(120); i >= 0; i-- {
			va := regions[rng.Intn(len(regions))] + uint64(rng.Intn(4*EntriesPerTable))*PageSize4K
			size := Size4K
			if rng.Intn(4) == 0 {
				va &^= PageSize2M - 1
				size = Size2M
			}
			if va < MaxVA && pt.Map(va, uint64(i), size, Write) == nil {
				vas = append(vas, va)
			}
		}
		bound := func() uint64 {
			switch rng.Intn(5) {
			case 0: // on, just below or just above a leaf's first byte
				if len(vas) > 0 {
					return vas[rng.Intn(len(vas))] + uint64(rng.Intn(3)) - 1
				}
				return 0
			case 1:
				return regions[rng.Intn(len(regions))] + uint64(rng.Int63n(8*PageSize2M))
			case 2: // past MaxVA
				return MaxVA + uint64(rng.Int63n(1<<40))
			case 3:
				return uint64(rng.Int63n(int64(MaxVA)))
			default:
				return MaxVA
			}
		}
		for i := 0; i < 200; i++ {
			start, end := bound(), bound()
			switch rng.Intn(6) {
			case 0:
				end = start
			case 1:
				end = start + uint64(rng.Intn(3*PageSize4K))
			case 2:
				start = 0
			}
			switch {
			case start == end:
				cov.empty++
			case start > end:
				cov.reversed++
			}
			if end > MaxVA {
				cov.pastMax++
			}
			got := collect(func(fn func(Translation)) { pt.VisitRange(start, end, fn) })
			want := collect(func(fn func(Translation)) { visitScan(pt.root, 3, 0, start, min(end, MaxVA), fn) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d: VisitRange(%#x, %#x) visited %v, scan %v", seed, start, end, got, want)
			}
			cov.visits += len(got)
		}
		got := collect(pt.Leaves)
		want := collect(func(fn func(Translation)) { visitScan(pt.root, 3, 0, 0, MaxVA, fn) })
		if !slices.Equal(got, want) || len(got) != pt.LeafCount() {
			t.Fatalf("seed %d: Leaves visited %d leaves, scan %d, table holds %d", seed, len(got), len(want), pt.LeafCount())
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.visits == 0 || cov.empty == 0 || cov.reversed == 0 || cov.pastMax == 0 {
		t.Fatalf("coverage %+v: a range case never occurred", cov)
	}
}

func TestFlagsString(t *testing.T) {
	f := Present | Write | Global
	if got := f.String(); got != "pw---g---" {
		t.Fatalf("String = %q", got)
	}
}

// Property: mapping a set of distinct pages then walking each returns the
// exact frame; unmapping all leaves an empty table with zero table pages.
func TestMapUnmapProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		pt := New()
		seen := map[uint64]uint64{}
		for i, r := range raw {
			va := (uint64(r) % (1 << 30)) &^ (PageSize4K - 1)
			if _, dup := seen[va]; dup {
				continue
			}
			frame := uint64(i + 1)
			if err := pt.Map(va, frame, Size4K, User); err != nil {
				return false
			}
			seen[va] = frame
		}
		for va, frame := range seen {
			tr, err := pt.Walk(va)
			if err != nil || tr.Frame != frame {
				return false
			}
		}
		if pt.LeafCount() != len(seen) {
			return false
		}
		for va := range seen {
			if _, err := pt.Unmap(va); err != nil {
				return false
			}
		}
		return pt.LeafCount() == 0 && pt.TablePages() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAlloc(t *testing.T) {
	a := NewFrameAlloc()
	f1 := a.Alloc()
	f2 := a.Alloc()
	if f1 == 0 || f1 == f2 {
		t.Fatalf("frames not unique/nonzero: %d %d", f1, f2)
	}
	if a.Live() != 2 {
		t.Fatalf("Live = %d", a.Live())
	}
	a.Free(f1)
	if a.Live() != 1 {
		t.Fatalf("Live after free = %d", a.Live())
	}
	if f3 := a.Alloc(); f3 != f1 {
		t.Fatalf("free list not recycled: got %d want %d", f3, f1)
	}
	base := a.AllocContig(512)
	if base == 0 {
		t.Fatal("AllocContig returned 0")
	}
	if a.Live() != 2+512 {
		t.Fatalf("Live = %d", a.Live())
	}
}
