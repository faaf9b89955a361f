package mach

import (
	"testing"
	"testing/quick"
)

func TestDefaultTopology(t *testing.T) {
	topo := DefaultTopology()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := topo.NumCPUs(); got != 56 {
		t.Fatalf("NumCPUs = %d, want 56", got)
	}
	if topo.SocketOf(0) != 0 || topo.SocketOf(28) != 1 || topo.SocketOf(55) != 1 {
		t.Fatal("SocketOf wrong for boundary CPUs")
	}
	if topo.CoreOf(0) != 0 || topo.CoreOf(1) != 0 || topo.CoreOf(2) != 1 {
		t.Fatal("CoreOf wrong")
	}
	if topo.SMTSibling(0) != 1 || topo.SMTSibling(1) != 0 {
		t.Fatal("SMTSibling wrong")
	}
}

func TestDistance(t *testing.T) {
	topo := DefaultTopology()
	cases := []struct {
		a, b CPU
		want Distance
	}{
		{0, 0, DistSelf},
		{0, 1, DistSMT},
		{0, 2, DistSocket},
		{0, 27, DistSocket},
		{0, 28, DistCross},
		{3, 55, DistCross},
	}
	for _, c := range cases {
		if got := topo.DistanceBetween(c.a, c.b); got != c.want {
			t.Errorf("Distance(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceSymmetric(t *testing.T) {
	topo := DefaultTopology()
	f := func(a, b uint8) bool {
		x := CPU(int(a) % topo.NumCPUs())
		y := CPU(int(b) % topo.NumCPUs())
		return topo.DistanceBetween(x, y) == topo.DistanceBetween(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponderFor(t *testing.T) {
	topo := DefaultTopology()
	init := CPU(0)
	if r := topo.ResponderFor(init, PlaceSameCore); !topo.SameCore(init, r) || r == init {
		t.Fatalf("same-core responder %d invalid", r)
	}
	if r := topo.ResponderFor(init, PlaceSameSocket); !topo.SameSocket(init, r) || topo.SameCore(init, r) {
		t.Fatalf("same-socket responder %d invalid", r)
	}
	if r := topo.ResponderFor(init, PlaceCrossSocket); topo.SameSocket(init, r) {
		t.Fatalf("cross-socket responder %d invalid", r)
	}
}

func TestCPUsOfSocket(t *testing.T) {
	topo := DefaultTopology()
	s0 := topo.CPUsOfSocket(0)
	if len(s0) != 28 || s0[0] != 0 || s0[27] != 27 {
		t.Fatalf("socket 0 CPUs wrong: %v", s0)
	}
	s1 := topo.CPUsOfSocket(1)
	if len(s1) != 28 || s1[0] != 28 {
		t.Fatalf("socket 1 CPUs wrong: %v", s1)
	}
}

func TestCostModelMonotonic(t *testing.T) {
	c := DefaultCosts()
	if !(c.L1Hit < c.SMTTransfer && c.SMTTransfer < c.SocketTransfer && c.SocketTransfer < c.CrossTransfer) {
		t.Fatal("cacheline transfer costs are not monotone in distance")
	}
	if !(c.IPIDeliverSMT <= c.IPIDeliverSocket && c.IPIDeliverSocket < c.IPIDeliverCross) {
		t.Fatal("IPI delivery costs are not monotone in distance")
	}
	if c.Invlpg >= c.InvpcidSingle {
		t.Fatal("INVLPG must be cheaper than single-address INVPCID (paper §3.4)")
	}
	if c.TransferCost(DistCross) != c.CrossTransfer {
		t.Fatal("TransferCost mapping wrong")
	}
	if c.IPIDeliverCost(DistSocket) != c.IPIDeliverSocket {
		t.Fatal("IPIDeliverCost mapping wrong")
	}
}

func TestCPUMaskBasics(t *testing.T) {
	var m CPUMask
	if !m.Empty() {
		t.Fatal("zero mask not empty")
	}
	m.Set(0)
	m.Set(63)
	m.Set(64)
	m.Set(127)
	if m.Count() != 4 {
		t.Fatalf("Count = %d, want 4", m.Count())
	}
	for _, c := range []CPU{0, 63, 64, 127} {
		if !m.Has(c) {
			t.Fatalf("missing cpu %d", c)
		}
	}
	m.Clear(63)
	if m.Has(63) || m.Count() != 3 {
		t.Fatal("Clear failed")
	}
	got := m.CPUs()
	want := []CPU{0, 64, 127}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CPUs() = %v, want %v", got, want)
		}
	}
	if s := MaskOf(1, 5).String(); s != "{1,5}" {
		t.Fatalf("String = %q", s)
	}
}

func TestCPUMaskSetOps(t *testing.T) {
	a := MaskOf(1, 2, 3, 70)
	b := MaskOf(2, 3, 4)
	if got := a.And(b); got.Count() != 2 || !got.Has(2) || !got.Has(3) {
		t.Fatalf("And = %v", got)
	}
	if got := a.Or(b); got.Count() != 5 {
		t.Fatalf("Or = %v", got)
	}
	if got := a.AndNot(b); got.Count() != 2 || !got.Has(1) || !got.Has(70) {
		t.Fatalf("AndNot = %v", got)
	}
}

func TestCPUMaskProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		var a, b CPUMask
		for _, x := range xs {
			a.Set(CPU(x % 128))
		}
		for _, y := range ys {
			b.Set(CPU(y % 128))
		}
		union := a.Or(b)
		inter := a.And(b)
		// |A| + |B| == |A∪B| + |A∩B|
		if a.Count()+b.Count() != union.Count()+inter.Count() {
			return false
		}
		// A\B ∪ A∩B == A
		if re := a.AndNot(b).Or(inter); !re.Equal(a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceString(t *testing.T) {
	want := map[Distance]string{
		DistSelf: "self", DistSMT: "smt", DistSocket: "socket", DistCross: "cross",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Distance(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
	if Distance(99).String() == "" {
		t.Error("unknown distance should render something")
	}
}

func TestPlacementString(t *testing.T) {
	for _, p := range Placements() {
		if p.String() == "" {
			t.Errorf("placement %d has empty name", p)
		}
	}
	if Placement(99).String() == "" {
		t.Error("unknown placement should render something")
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := Topology{Sockets: 0, CoresPerSocket: 4, ThreadsPerCore: 2}
	if bad.Validate() == nil {
		t.Error("invalid topology accepted")
	}
}

// TestParseTopologyRejectsOverflow: components whose product wraps must be
// rejected before NumCPUs multiplies them. 2^32 squared wraps to 0 CPUs,
// which runs a machine out of memory, and 3037000500 squared wraps
// negative, which panics in makeslice.
func TestParseTopologyRejectsOverflow(t *testing.T) {
	for _, in := range []string{
		"4294967296x4294967296x1",
		"3037000500x3037000500x1",
		"1x1x9223372036854775807",
		"4097x1x1",
		"1x4097x1",
		"1x1x4097",
		"2x2x2x-2",
	} {
		if topo, err := ParseTopology(in); err == nil {
			t.Errorf("ParseTopology(%q) = %+v (%d CPUs), want an error", in, topo, topo.NumCPUs())
		}
	}
	if topo, err := ParseTopology("4096x1x1"); err != nil || topo.NumCPUs() != MaxCPUs {
		t.Errorf("ParseTopology(4096x1x1) = %+v, %v; want the %d-CPU limit accepted", topo, err, MaxCPUs)
	}
}

func TestResponderForPanics(t *testing.T) {
	topo := Topology{Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1}
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("same-core without SMT", func() { topo.ResponderFor(0, PlaceSameCore) })
	assertPanics("cross-socket with 1 socket", func() { topo.ResponderFor(0, PlaceCrossSocket) })
}
