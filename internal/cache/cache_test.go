package cache

import (
	"testing"
	"testing/quick"

	"shootdown/internal/mach"
)

func newDir() *Directory {
	return New(mach.DefaultTopology(), mach.DefaultCosts())
}

func TestFirstTouchIsCheap(t *testing.T) {
	d := newDir()
	l := d.NewLine()
	if got := d.Read(0, l); got != mach.DefaultCosts().L1Hit {
		t.Fatalf("first read cost = %d, want L1 hit", got)
	}
	if l.State() != Exclusive {
		t.Fatalf("state after first read = %v, want E", l.State())
	}
}

func TestReadAfterRemoteWrite(t *testing.T) {
	c := mach.DefaultCosts()
	d := newDir()
	l := d.NewLine()
	d.Write(0, l)
	if l.State() != Modified {
		t.Fatalf("state = %v, want M", l.State())
	}
	// Same-socket reader pays a socket transfer and demotes to Shared.
	if got := d.Read(2, l); got != c.SocketTransfer {
		t.Fatalf("same-socket read = %d, want %d", got, c.SocketTransfer)
	}
	if l.State() != Shared {
		t.Fatalf("state = %v, want S", l.State())
	}
	// Re-read is now a hit.
	if got := d.Read(2, l); got != c.L1Hit {
		t.Fatalf("re-read = %d, want L1 hit", got)
	}
}

func TestCrossSocketCostsDominate(t *testing.T) {
	c := mach.DefaultCosts()
	d := newDir()
	l := d.NewLine()
	d.Write(0, l)
	if got := d.Read(28, l); got != c.CrossTransfer {
		t.Fatalf("cross read = %d, want %d", got, c.CrossTransfer)
	}
}

func TestSMTSiblingIsCheap(t *testing.T) {
	c := mach.DefaultCosts()
	d := newDir()
	l := d.NewLine()
	d.Write(0, l)
	if got := d.Read(1, l); got != c.SMTTransfer {
		t.Fatalf("SMT read = %d, want %d", got, c.SMTTransfer)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	c := mach.DefaultCosts()
	d := newDir()
	l := d.NewLine()
	d.Read(0, l)
	d.Read(2, l)
	d.Read(28, l)
	// RFO from cpu 0 must pay for the farthest holder (cross socket).
	if got := d.Write(0, l); got != c.CrossTransfer {
		t.Fatalf("RFO = %d, want %d", got, c.CrossTransfer)
	}
	if l.State() != Modified {
		t.Fatalf("state = %v, want M", l.State())
	}
	// Previous sharer must now transfer again.
	if got := d.Read(2, l); got != c.SocketTransfer {
		t.Fatalf("read after invalidate = %d, want transfer", got)
	}
}

func TestSoleSharerWriteUpgradesInPlace(t *testing.T) {
	c := mach.DefaultCosts()
	d := newDir()
	l := d.NewLine()
	d.Write(0, l)
	d.Read(2, l) // S with sharers {0,2}
	d.Write(2, l)
	d.Read(2, l)
	// Now re-share and collapse to a single sharer scenario.
	l2 := d.NewLine()
	d.Read(3, l2) // E owned by 3
	d.Read(3, l2)
	if got := d.Write(3, l2); got != c.L1Hit {
		t.Fatalf("upgrade from E by owner = %d, want L1 hit", got)
	}
}

func TestAtomicAddsRMWCost(t *testing.T) {
	c := mach.DefaultCosts()
	d := newDir()
	l := d.NewLine()
	d.Write(0, l)
	if got := d.Atomic(0, l); got != c.L1Hit+c.AtomicRMW {
		t.Fatalf("local atomic = %d, want %d", got, c.L1Hit+c.AtomicRMW)
	}
	if got := d.Atomic(28, l); got != c.CrossTransfer+c.AtomicRMW {
		t.Fatalf("remote atomic = %d, want %d", got, c.CrossTransfer+c.AtomicRMW)
	}
}

func TestStatsAndTransferCounting(t *testing.T) {
	d := newDir()
	l := d.NewLine()
	d.Write(0, l)
	d.Read(28, l)
	d.Write(2, l)
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Transfers() != 2 {
		t.Fatalf("transfers = %d, want 2", s.Transfers())
	}
	if s.TransfersByDist[mach.DistCross] != 2 {
		t.Fatalf("cross transfers = %d, want 2 (read from 28, RFO paying for 28)", s.TransfersByDist[mach.DistCross])
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not clear")
	}
}

// Property: repeated access by the same CPU with no interference is always
// an L1 hit after the first access, and costs never go below L1Hit.
func TestAccessCostProperties(t *testing.T) {
	topo := mach.DefaultTopology()
	c := mach.DefaultCosts()
	f := func(ops []uint16) bool {
		d := New(topo, c)
		l := d.NewLine()
		var last mach.CPU = -1
		for _, op := range ops {
			cpu := mach.CPU(int(op>>1) % topo.NumCPUs())
			var cost uint64
			if op&1 == 0 {
				cost = d.Read(cpu, l)
			} else {
				cost = d.Write(cpu, l)
			}
			if cost < c.L1Hit {
				return false
			}
			// A repeat access by the same CPU is free of transfers.
			if cpu == last {
				var again uint64
				if op&1 == 0 {
					again = d.Read(cpu, l)
				} else {
					again = d.Write(cpu, l)
				}
				if again != c.L1Hit {
					return false
				}
			}
			last = cpu
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a write always leaves the line Modified and owned by the writer.
func TestWriteOwnershipProperty(t *testing.T) {
	topo := mach.DefaultTopology()
	f := func(ops []uint16) bool {
		d := New(topo, mach.DefaultCosts())
		l := d.NewLine()
		for _, op := range ops {
			cpu := mach.CPU(int(op>>1) % topo.NumCPUs())
			if op&1 == 0 {
				d.Read(cpu, l)
			} else {
				d.Write(cpu, l)
				if l.State() != Modified {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// broadcastRound is the widest sharing a shootdown produces on one line:
// CPU 0 writes it, then every other CPU reads it.
func broadcastRound(d *Directory, l *Line, n int) {
	d.Write(0, l)
	for cpu := 1; cpu < n; cpu++ {
		d.Read(mach.CPU(cpu), l)
	}
}

func newDir512(tb testing.TB) (*Directory, int) {
	tb.Helper()
	topo, err := mach.ScaleTopology(512)
	if err != nil {
		tb.Fatal(err)
	}
	return New(topo, mach.DefaultCosts()), topo.NumCPUs()
}

// TestBroadcastReadAllocs pins a warm broadcast round at zero allocations:
// the line keeps its sharer storage across rounds, and the distance
// queries never copy the mask.
func TestBroadcastReadAllocs(t *testing.T) {
	d, n := newDir512(t)
	l := d.NewLine()
	if allocs := testing.AllocsPerRun(10, func() { broadcastRound(d, l, n) }); allocs != 0 {
		t.Fatalf("warm broadcast round allocated %.0f times, want 0", allocs)
	}
}

func BenchmarkBroadcastRead512(b *testing.B) {
	d, n := newDir512(b)
	l := d.NewLine()
	broadcastRound(d, l, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broadcastRound(d, l, n)
	}
}
