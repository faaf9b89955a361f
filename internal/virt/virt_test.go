package virt

import (
	"testing"

	"shootdown/internal/pagetable"
	"shootdown/internal/tlb"
)

const (
	pg4k = pagetable.PageSize4K
	pg2m = pagetable.PageSize2M
)

func build(t *testing.T, bytes uint64, gs, hs pagetable.Size) *NestedPT {
	t.Helper()
	n := New()
	if _, err := n.BuildLinear(bytes, gs, hs, pagetable.NewFrameAlloc()); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestWalk4KOn4K(t *testing.T) {
	n := build(t, 8*pg4k, pagetable.Size4K, pagetable.Size4K)
	c, err := n.Walk(3*pg4k + 0x123)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size != pagetable.Size4K || c.Fractured {
		t.Fatalf("combined = %+v", c)
	}
	if c.VA != 3*pg4k {
		t.Fatalf("VA = %#x", c.VA)
	}
	// Two distinct GVAs map to distinct host frames.
	c2, _ := n.Walk(4 * pg4k)
	if c2.Frame == c.Frame {
		t.Fatal("distinct pages share a host frame")
	}
}

func TestWalkFractured(t *testing.T) {
	n := build(t, 2*pg2m, pagetable.Size2M, pagetable.Size4K)
	c, err := n.Walk(pg2m + 5*pg4k)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Fractured {
		t.Fatal("guest 2M on host 4K must be fractured")
	}
	if c.Size != pagetable.Size4K {
		t.Fatalf("effective size = %v, want 4K", c.Size)
	}
	if c.VA != pg2m+5*pg4k {
		t.Fatalf("VA = %#x", c.VA)
	}
	// Neighbouring 4K fragments of the same guest page get distinct
	// entries with distinct frames.
	c2, _ := n.Walk(pg2m + 6*pg4k)
	if c2.VA == c.VA || c2.Frame == c.Frame {
		t.Fatalf("fragments not distinct: %+v vs %+v", c, c2)
	}
	if !c.Entry().Fractured {
		t.Fatal("Entry() lost the fracture mark")
	}
}

func TestWalk2MOn2M(t *testing.T) {
	n := build(t, 4*pg2m, pagetable.Size2M, pagetable.Size2M)
	c, err := n.Walk(3*pg2m + 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size != pagetable.Size2M || c.Fractured {
		t.Fatalf("combined = %+v", c)
	}
	if c.VA != 3*pg2m {
		t.Fatalf("VA = %#x", c.VA)
	}
}

func TestWalk4KOn2M(t *testing.T) {
	// Guest 4K on host 2M: splintered the other way; effective 4K but not
	// fractured (the guest leaf is small, selective flushes stay safe).
	n := build(t, pg2m, pagetable.Size4K, pagetable.Size2M)
	c, err := n.Walk(7 * pg4k)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size != pagetable.Size4K || c.Fractured {
		t.Fatalf("combined = %+v", c)
	}
}

func TestWalkErrors(t *testing.T) {
	n := build(t, 4*pg4k, pagetable.Size4K, pagetable.Size4K)
	if _, err := n.Walk(100 * pg4k); err == nil {
		t.Fatal("walk of unmapped gva succeeded")
	}
}

func TestNestedStepsExceedBareMetal(t *testing.T) {
	n := build(t, 4*pg4k, pagetable.Size4K, pagetable.Size4K)
	c, _ := n.Walk(0)
	if c.Steps <= 4 {
		t.Fatalf("nested walk steps = %d, want > 4 (2D walk)", c.Steps)
	}
}

// TestFractureForcesFullFlush ties the model together: filling a TLB from
// a fractured configuration makes selective flushes behave as full flushes
// (Table 4's headline behaviour).
func TestFractureForcesFullFlush(t *testing.T) {
	n := build(t, 4*pg2m, pagetable.Size2M, pagetable.Size4K)
	tl := tlb.New(tlb.Config{Cap4K: 4096, Cap2M: 64, PWCSize: 16, FractureRule: true})
	for va := uint64(0); va < 4*pg2m; va += pg4k {
		c, err := n.Walk(va)
		if err != nil {
			t.Fatal(err)
		}
		tl.Fill(1, c.Entry())
	}
	before := tl.Len()
	if before == 0 {
		t.Fatal("nothing cached")
	}
	tl.FlushPage(1, 0) // selective flush of a single page
	if tl.Len() != 0 {
		t.Fatalf("selective flush left %d entries; fracturing must escalate to full", tl.Len())
	}
	if tl.Stats().FractureEscalations != 1 {
		t.Fatalf("stats = %+v", tl.Stats())
	}
}
