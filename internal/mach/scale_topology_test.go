package mach

import (
	"fmt"
	"testing"
)

// TestScaleTopologyPresets pins the scale-out presets: CPU counts, SNC
// refinement, validity, and the Spec/ParseTopology round trip.
func TestScaleTopologyPresets(t *testing.T) {
	for _, n := range ScaleCPUCounts() {
		topo, err := ScaleTopology(n)
		if err != nil {
			t.Fatalf("ScaleTopology(%d): %v", n, err)
		}
		if topo.NumCPUs() != n {
			t.Errorf("preset %d: NumCPUs = %d", n, topo.NumCPUs())
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("preset %d invalid: %v", n, err)
		}
		rt, err := ParseTopology(topo.Spec())
		if err != nil || rt != topo {
			t.Errorf("preset %d: ParseTopology(Spec()=%q) = %+v, %v", n, topo.Spec(), rt, err)
		}
		rt, err = ParseTopology(fmt.Sprint(n))
		if err != nil || rt != topo {
			t.Errorf("preset %d: ParseTopology(%d) = %+v, %v", n, n, rt, err)
		}
	}
	if _, err := ScaleTopology(123); err == nil {
		t.Error("ScaleTopology(123) did not fail")
	}
	if topo, _ := ScaleTopology(56); topo != DefaultTopology() {
		t.Error("ScaleTopology(56) is not the paper's testbed")
	}
}

// TestParseTopology covers the flag grammar: presets, explicit specs with
// and without an SNC component, and the rejection paths.
func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Topology
		ok   bool
	}{
		{"", DefaultTopology(), true},
		{"default", DefaultTopology(), true},
		{"4x32x2", Topology{Sockets: 4, CoresPerSocket: 32, ThreadsPerCore: 2}, true},
		{"8x32x2x2", Topology{Sockets: 8, CoresPerSocket: 32, ThreadsPerCore: 2, SNCPerSocket: 2}, true},
		{"2 x 14 x 2", Topology{Sockets: 2, CoresPerSocket: 14, ThreadsPerCore: 2}, true},
		{"99", Topology{}, false},   // no such preset
		{"4x32", Topology{}, false}, // too few components
		{"4x32x2x2x2", Topology{}, false} /* too many */, {"axbxc", Topology{}, false},
		{"4x30x2x4", Topology{}, false}, // SNC 4 does not divide 30
		{"64x64x2", Topology{}, false},  // 8192 CPUs, above MaxCPUs
		{"0x14x2", Topology{}, false},   // zero sockets
	} {
		got, err := ParseTopology(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseTopology(%q) = %+v, %v; want %+v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// FuzzParseTopology: no flag value panics, an accepted topology has
// between 1 and MaxCPUs CPUs, and its canonical spelling re-parses to the
// same spelling (not the same struct: "4x32x2x1" and "4x32x2" are one
// machine). The seed corpus under testdata/fuzz includes components
// whose product wraps int.
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		topo, err := ParseTopology(in)
		if err != nil {
			return
		}
		if n := topo.NumCPUs(); n < 1 || n > MaxCPUs {
			t.Fatalf("ParseTopology(%q) = %+v with %d CPUs", in, topo, n)
		}
		again, err := ParseTopology(topo.Spec())
		if err != nil || again.Spec() != topo.Spec() {
			t.Fatalf("ParseTopology(%q).Spec() = %q re-parses to %q, %v", in, topo.Spec(), again.Spec(), err)
		}
	})
}

// TestSNCDomains pins the sub-NUMA cluster geometry on the 512-CPU
// preset (8 sockets x 32 cores x 2 SMT, SNC-2: 16 cores = 32 CPUs per
// cluster, two clusters per socket) and the monolithic default.
func TestSNCDomains(t *testing.T) {
	def := DefaultTopology()
	if def.SNCDomains() != 1 {
		t.Fatalf("default SNCDomains = %d, want 1", def.SNCDomains())
	}
	for _, cpu := range []CPU{0, 27, 28, 55} {
		if got, want := def.SNCOf(cpu), def.SocketOf(cpu); got != want {
			t.Errorf("default SNCOf(%d) = %d, want socket %d", cpu, got, want)
		}
	}

	topo, err := ScaleTopology(512)
	if err != nil {
		t.Fatal(err)
	}
	if topo.SNCDomains() != 2 {
		t.Fatalf("512 SNCDomains = %d, want 2", topo.SNCDomains())
	}
	// Socket 0: CPUs 0..63. SNC-2 splits its 32 cores into 16+16, so the
	// cluster boundary falls between CPU 31 and CPU 32.
	for _, tc := range []struct {
		cpu  CPU
		want int
	}{{0, 0}, {31, 0}, {32, 1}, {63, 1}, {64, 2}, {127, 3}, {511, 15}} {
		if got := topo.SNCOf(tc.cpu); got != tc.want {
			t.Errorf("SNCOf(%d) = %d, want %d", tc.cpu, got, tc.want)
		}
	}
	if !topo.SameSNC(0, 31) || topo.SameSNC(31, 32) || topo.SameSNC(0, 64) {
		t.Error("SameSNC boundaries wrong on the 512-CPU preset")
	}
	// SNC refines sockets: same cluster implies same socket, everywhere.
	for _, a := range []CPU{0, 31, 32, 63, 64, 255, 256, 511} {
		for _, b := range []CPU{0, 31, 32, 63, 64, 255, 256, 511} {
			if topo.SameSNC(a, b) && !topo.SameSocket(a, b) {
				t.Errorf("CPUs %d and %d share an SNC across sockets", a, b)
			}
		}
	}
}

// TestValidateRejectsBadSNC covers the validation error paths directly.
func TestValidateRejectsBadSNC(t *testing.T) {
	bad := Topology{Sockets: 2, CoresPerSocket: 14, ThreadsPerCore: 2, SNCPerSocket: 3}
	if bad.Validate() == nil {
		t.Error("SNC 3 over 14 cores validated")
	}
	if (Topology{}).Validate() == nil {
		t.Error("zero topology validated")
	}
	huge := Topology{Sockets: MaxCPUs, CoresPerSocket: 2, ThreadsPerCore: 1}
	if huge.Validate() == nil {
		t.Error("topology above MaxCPUs validated")
	}
}
