package mach

import (
	"math/rand"
	"testing"
)

// distanceSpecs are the presets plus shapes whose sockets and cores
// straddle mask words unevenly (20-CPU sockets, single-thread cores,
// one-core sockets).
var distanceSpecs = []string{"56", "256", "512", "1024", "1x3x1", "3x5x4", "2x1x2", "5x13x3"}

// bruteNearest and bruteFarthest are the per-member walks NearestIn and
// FarthestIn replace: the minimum and maximum of DistanceBetween over the
// mask's members, cpu itself excluded from the maximum.
func bruteNearest(topo Topology, cpu CPU, m CPUMask) Distance {
	best := DistCross
	m.ForEach(func(c CPU) {
		if d := topo.DistanceBetween(cpu, c); d < best {
			best = d
		}
	})
	return best
}

func bruteFarthest(topo Topology, cpu CPU, m CPUMask) Distance {
	worst := DistSelf
	m.ForEach(func(c CPU) {
		if d := topo.DistanceBetween(cpu, c); c != cpu && d > worst {
			worst = d
		}
	})
	return worst
}

// boundaryNeighbours returns the ids on either side of every range edge
// around cpu (its core, its socket), clipped to the machine.
func boundaryNeighbours(topo Topology, cpu CPU) []CPU {
	coreLo, coreHi, sockLo, sockHi := topo.ranges(cpu)
	var out []CPU
	for _, c := range []CPU{cpu - 1, cpu, cpu + 1, coreLo - 1, coreLo, coreHi - 1, coreHi, sockLo - 1, sockLo, sockHi - 1, sockHi} {
		if c >= 0 && int(c) < topo.NumCPUs() {
			out = append(out, c)
		}
	}
	return out
}

// TestRangeDistanceDifferential checks NearestIn and FarthestIn against the
// brute-force walk on sparse, dense, boundary and empty masks, with and
// without the queried CPU as a member.
func TestRangeDistanceDifferential(t *testing.T) {
	for _, spec := range distanceSpecs {
		topo, err := ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec, func(t *testing.T) {
			n := topo.NumCPUs()
			rng := rand.New(rand.NewSource(int64(n)*7919 + int64(topo.ThreadsPerCore)))
			check := func(kind string, cpu CPU, m CPUMask) {
				t.Helper()
				if got, want := topo.NearestIn(cpu, m), bruteNearest(topo, cpu, m); got != want {
					t.Fatalf("%s: NearestIn(%d, %v) = %v, brute force %v", kind, cpu, m, got, want)
				}
				if got, want := topo.FarthestIn(cpu, m), bruteFarthest(topo, cpu, m); got != want {
					t.Fatalf("%s: FarthestIn(%d, %v) = %v, brute force %v", kind, cpu, m, got, want)
				}
			}
			var empty CPUMask
			sized := NewCPUMask(n)
			for cpu := CPU(0); int(cpu) < n; cpu++ {
				check("empty", cpu, empty)
				check("empty-sized", cpu, sized)
				check("self", cpu, MaskOf(cpu))
				check("boundary", cpu, MaskOf(boundaryNeighbours(topo, cpu)...))
			}
			for trial := 0; trial < 400; trial++ {
				cpu := CPU(rng.Intn(n))
				var m CPUMask
				var kind string
				switch trial % 4 {
				case 0, 1: // sparse: 0-5 members, storage only up to the highest
					kind = "sparse"
					for k := rng.Intn(6); k > 0; k-- {
						m.Set(CPU(rng.Intn(n)))
					}
					if trial%4 == 1 {
						kind = "sparse+self"
						m.Set(cpu)
					}
				case 2: // dense: each CPU a member with probability p
					kind = "dense"
					m = NewCPUMask(n)
					p := 0.5 + rng.Float64()/2
					for c := 0; c < n; c++ {
						if rng.Float64() < p {
							m.Set(CPU(c))
						}
					}
				case 3: // a random subset of cpu's range edges
					kind = "edges"
					for _, c := range boundaryNeighbours(topo, cpu) {
						if rng.Intn(2) == 0 {
							m.Set(c)
						}
					}
				}
				check(kind, cpu, m)
				for k := 0; k < 16; k++ {
					check(kind, CPU(rng.Intn(n)), m)
				}
			}
		})
	}
}

// TestCPUMaskAnyIn checks every range over a few masks against the dense
// reference, including ranges that start below 0 or end past the mask's
// storage.
func TestCPUMaskAnyIn(t *testing.T) {
	const capacity = 256
	rng := rand.New(rand.NewSource(0xA11))
	for trial := 0; trial < 12; trial++ {
		var m CPUMask
		var ref denseMask
		for k := rng.Intn(2 + trial*trial); k > 0; k-- {
			cpu := CPU(rng.Intn(capacity - 64*(trial%3)))
			m.Set(cpu)
			ref.set(cpu)
		}
		// prefix[i] counts reference members below i.
		var prefix [capacity + 1]int
		for i := 0; i < capacity; i++ {
			prefix[i+1] = prefix[i]
			if ref.has(CPU(i)) {
				prefix[i+1]++
			}
		}
		clip := func(c int) int { return min(max(c, 0), capacity) }
		for lo := -2; lo <= capacity+66; lo++ {
			for hi := lo - 1; hi <= capacity+66; hi++ {
				want := hi > lo && prefix[clip(hi)]-prefix[clip(lo)] > 0
				if got := m.AnyIn(CPU(lo), CPU(hi)); got != want {
					t.Fatalf("mask %v: AnyIn(%d, %d) = %v, want %v", m, lo, hi, got, want)
				}
			}
		}
	}
}

// TestCPUMaskReset checks that Reset empties the mask and keeps its
// storage, so refilling it below its capacity does not allocate.
func TestCPUMaskReset(t *testing.T) {
	m := MaskOf(0, 70, 511)
	m.Reset()
	if !m.Empty() || m.Count() != 0 || m.Has(70) || m.AnyIn(0, MaxCPUs) {
		t.Fatalf("Reset left members: %v", m)
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset()
		for cpu := CPU(0); cpu < 512; cpu += 3 {
			m.Set(cpu)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset and refill allocated %.1f times per run, want 0", allocs)
	}
	if m.Count() != 171 {
		t.Fatalf("Count after refill = %d, want 171", m.Count())
	}
}
