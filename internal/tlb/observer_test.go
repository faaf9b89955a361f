package tlb

import (
	"testing"

	"shootdown/internal/pagetable"
)

func fill(t *TLB, pcid PCID, va uint64, frame uint64, global bool) {
	t.Fill(pcid, Entry{
		VA: va, Frame: frame, Flags: pagetable.Present | pagetable.Write,
		Size: pagetable.Size4K, Global: global,
	})
}

// TestSnapshotDuringFlushPCIDSeesNoHalfClearedState: the sanitizer (and
// any observer) snapshots the TLB from inside flush subscribers. The
// contract is that Flushed fires only after the flush fully applied: a
// Snapshot taken inside the subscriber of a FlushPCID must contain no
// entry of the flushed PCID, and everything else must be intact.
func TestSnapshotDuringFlushPCIDSeesNoHalfClearedState(t *testing.T) {
	// Cap must hold all 9 fills: evictions would skew the removed counts.
	tl := New(Config{Cap4K: 16, Cap2M: 4, PWCSize: 4})
	for i := uint64(0); i < 4; i++ {
		fill(tl, 2, i<<12, 100+i, false)
		fill(tl, 3, i<<12, 200+i, false)
	}
	fill(tl, 2, 0x100000, 999, true) // global: stored under GlobalTag

	called := 0
	tl.Flushed.Add(func(f Flush) {
		called++
		if !f.Full || f.PCID != 2 {
			t.Errorf("flush = %+v, want a full flush of pcid 2", f)
		}
		if f.Removed != 4 {
			t.Errorf("removed = %d, want 4", f.Removed)
		}
		var left2, left3, global int
		for _, se := range tl.Snapshot() {
			switch se.PCID {
			case 2:
				left2++
			case 3:
				left3++
			case GlobalTag:
				global++
			}
		}
		if left2 != 0 {
			t.Errorf("snapshot mid-callback still has %d entries of flushed pcid", left2)
		}
		if left3 != 4 || global != 1 {
			t.Errorf("flush disturbed other spaces: pcid3=%d global=%d", left3, global)
		}
		// Lookups from inside the callback agree with the snapshot.
		if _, ok := tl.Lookup(2, 0); ok {
			t.Error("lookup mid-callback still hits flushed pcid")
		}
	})
	tl.FlushPCID(2)
	if called != 1 {
		t.Fatalf("FlushPCID emitted %d flush events, want 1", called)
	}
}

// TestFlushPageObserverCountsAndState mirrors the same contract for
// selective flushes, including the global-alias key.
func TestFlushPageObserverCountsAndState(t *testing.T) {
	tl := small()
	fill(tl, 2, 0x1000, 1, false)
	fill(tl, 3, 0x1000, 2, false)

	var got []int
	tl.Flushed.Add(func(f Flush) {
		if f.Full {
			t.Errorf("selective flush reported as full: %+v", f)
		}
		got = append(got, f.Removed)
		if _, ok := tl.Lookup(f.PCID, f.VA); ok {
			t.Error("entry survived into its own flush callback")
		}
	})
	tl.FlushPage(2, 0x1000) // removes pcid 2's entry only
	tl.FlushPage(2, 0x1000) // redundant: removes nothing
	tl.FlushPage(3, 0x1000)
	want := []int{1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("callbacks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callbacks = %v, want %v", got, want)
		}
	}
}

// TestFlushAllObserverVariants: FlushAllNonGlobal keeps globals,
// FlushEverything drops them too, and both report one full flush with its
// true removal count.
func TestFlushAllObserverVariants(t *testing.T) {
	tl := small()
	fill(tl, 2, 0x1000, 1, false)
	fill(tl, 2, 0x100000, 2, true)

	var evs []Flush
	tl.Flushed.Add(func(f Flush) {
		evs = append(evs, f)
		if len(evs) == 2 && tl.Len() != 0 {
			t.Error("FlushEverything callback sees leftover entries")
		}
	})
	tl.FlushAllNonGlobal()
	if n := tl.Len(); n != 1 {
		t.Fatalf("globals dropped by non-global flush: len=%d", n)
	}
	tl.FlushEverything()
	full := Flush{Full: true, Removed: 1}
	if len(evs) != 2 || evs[0] != full || evs[1] != full {
		t.Fatalf("events = %+v", evs)
	}
}

// TestHitAndFillObservers: every successful Lookup reports the returned
// entry; fills and misses emit nothing.
func TestHitAndFillObservers(t *testing.T) {
	tl := small()
	hits := 0
	tl.Hit.Add(func(h Hit) {
		hits++
		if h.PCID != 2 || h.VA != 0x1000 || h.Entry.Frame != 7 {
			t.Errorf("hit reported %+v", h)
		}
	})
	tl.Flushed.Add(func(f Flush) { t.Errorf("fill emitted a flush: %+v", f) })
	fill(tl, 2, 0x1000, 7, false)
	fill(tl, 2, 0x200000, 8, true)
	if hits != 0 {
		t.Fatalf("fills emitted %d hits", hits)
	}
	if _, ok := tl.Lookup(2, 0x1000); !ok {
		t.Fatal("lookup missed")
	}
	if _, ok := tl.Lookup(2, 0x9000); ok {
		t.Fatal("phantom hit")
	}
	if hits != 1 {
		t.Fatalf("hit observer fired %d times, want 1", hits)
	}
}

// TestFractureEscalationReportsAsFullFlush: under the fracture rule a
// selective flush escalates to a full flush; observers must see one full
// flush (with the true removal count), not a selective one — this is
// exactly the accounting the sanitizer's redundancy stats rely on.
func TestFractureEscalationReportsAsFullFlush(t *testing.T) {
	tl := New(Config{Cap4K: 8, Cap2M: 4, PWCSize: 4, FractureRule: true})
	// A fractured fill: 2M guest page backed by 4K host pages.
	tl.Fill(2, Entry{
		VA: 0, Frame: 1, Flags: pagetable.Present | pagetable.Huge,
		Size: pagetable.Size2M, Fractured: true,
	})
	fill(tl, 2, 0x400000, 3, false)

	pageEvents, allEvents := 0, 0
	tl.Flushed.Add(func(f Flush) {
		if !f.Full {
			pageEvents++
			return
		}
		allEvents++
		if f.Removed != 2 {
			t.Errorf("escalated flush removed %d, want 2", f.Removed)
		}
	})
	tl.FlushPage(2, 0x400000)
	if pageEvents != 0 || allEvents != 1 {
		t.Fatalf("pageEvents=%d allEvents=%d, want 0/1 (escalation)", pageEvents, allEvents)
	}
}
