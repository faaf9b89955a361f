// Package mach describes the simulated machine: CPU topology (sockets,
// physical cores, SMT threads) and the calibrated cost model, in cycles, for
// every hardware primitive the TLB shootdown protocol touches.
//
// The default topology mirrors the paper's testbed: a dual-socket Intel Xeon
// E5-2660v4 with 14 physical cores (28 SMT threads) per socket.
package mach

import (
	"fmt"
	"strconv"
	"strings"
)

// CPU is a logical CPU (hardware thread) identifier, dense in [0, NumCPUs).
type CPU int

// Topology describes the CPU layout of the machine. Logical CPUs are
// numbered socket-major, core-major, thread-minor:
//
//	cpu = socket*CoresPerSocket*ThreadsPerCore + core*ThreadsPerCore + thread
type Topology struct {
	Sockets        int // NUMA nodes
	CoresPerSocket int // physical cores per socket
	ThreadsPerCore int // SMT threads per physical core

	// SNCPerSocket partitions each socket into sub-NUMA clusters
	// (Intel SNC / AMD NPS style), numbered core-contiguously within the
	// socket. 0 or 1 means the socket is one monolithic NUMA domain; the
	// value must divide CoresPerSocket. It is parsed, validated and
	// printed (SNCOf and SameSNC answer queries), but no distance class,
	// cost or placement reads it.
	SNCPerSocket int
}

// DefaultTopology mirrors the paper's Dell R630 testbed: 2 sockets x 14
// physical cores x 2 SMT threads = 56 logical CPUs.
func DefaultTopology() Topology {
	return Topology{Sockets: 2, CoresPerSocket: 14, ThreadsPerCore: 2}
}

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Sockets < 1 || t.CoresPerSocket < 1 || t.ThreadsPerCore < 1 || t.SNCPerSocket < 0 {
		return fmt.Errorf("mach: invalid topology %+v", t)
	}
	// Bound each factor before multiplying: unchecked components can wrap
	// NumCPUs to zero or a negative count.
	if t.Sockets > MaxCPUs || t.CoresPerSocket > MaxCPUs || t.ThreadsPerCore > MaxCPUs {
		return fmt.Errorf("mach: topology %+v has a component above the %d-CPU mask limit", t, MaxCPUs)
	}
	if t.SNCPerSocket > 1 && t.CoresPerSocket%t.SNCPerSocket != 0 {
		return fmt.Errorf("mach: SNCPerSocket %d does not divide CoresPerSocket %d",
			t.SNCPerSocket, t.CoresPerSocket)
	}
	if n := t.NumCPUs(); n > MaxCPUs {
		return fmt.Errorf("mach: topology has %d CPUs, above the %d-CPU mask limit", n, MaxCPUs)
	}
	return nil
}

// NumCPUs returns the number of logical CPUs.
func (t Topology) NumCPUs() int { return t.Sockets * t.CoresPerSocket * t.ThreadsPerCore }

// SNCDomains returns the number of sub-NUMA clusters per socket (1 when
// sub-NUMA clustering is off).
func (t Topology) SNCDomains() int {
	if t.SNCPerSocket <= 1 {
		return 1
	}
	return t.SNCPerSocket
}

// SNCOf returns the global sub-NUMA cluster index containing cpu. With
// clustering off this equals the socket index.
func (t Topology) SNCOf(cpu CPU) int {
	domains := t.SNCDomains()
	coresPerSNC := t.CoresPerSocket / domains
	socket := t.SocketOf(cpu)
	coreInSocket := t.CoreOf(cpu) - socket*t.CoresPerSocket
	return socket*domains + coreInSocket/coresPerSNC
}

// SameSNC reports whether a and b share a sub-NUMA cluster.
func (t Topology) SameSNC(a, b CPU) bool { return t.SNCOf(a) == t.SNCOf(b) }

// SocketOf returns the socket (NUMA node) containing cpu.
func (t Topology) SocketOf(cpu CPU) int {
	return int(cpu) / (t.CoresPerSocket * t.ThreadsPerCore)
}

// CoreOf returns the global physical-core index containing cpu.
func (t Topology) CoreOf(cpu CPU) int { return int(cpu) / t.ThreadsPerCore }

// ThreadOf returns the SMT thread index of cpu within its physical core.
func (t Topology) ThreadOf(cpu CPU) int { return int(cpu) % t.ThreadsPerCore }

// SameCore reports whether a and b are SMT siblings on one physical core.
func (t Topology) SameCore(a, b CPU) bool { return t.CoreOf(a) == t.CoreOf(b) }

// SameSocket reports whether a and b share a socket.
func (t Topology) SameSocket(a, b CPU) bool { return t.SocketOf(a) == t.SocketOf(b) }

// SMTSibling returns the other hardware thread of cpu's physical core.
// With ThreadsPerCore == 1 it returns cpu itself.
func (t Topology) SMTSibling(cpu CPU) CPU {
	core := t.CoreOf(cpu)
	thread := (t.ThreadOf(cpu) + 1) % t.ThreadsPerCore
	return CPU(core*t.ThreadsPerCore + thread)
}

// CPUsOfSocket returns the logical CPUs of the given socket in id order.
func (t Topology) CPUsOfSocket(socket int) []CPU {
	per := t.CoresPerSocket * t.ThreadsPerCore
	cpus := make([]CPU, 0, per)
	for i := 0; i < per; i++ {
		cpus = append(cpus, CPU(socket*per+i))
	}
	return cpus
}

// ScaleTopology returns the parameterized scale-out machine with the
// given logical CPU count. Supported sizes: 56 (the paper's testbed),
// 256 (4 sockets x 32 cores x 2 SMT, SNC-2), 512 (8 x 32 x 2, SNC-2) and
// 1024 (8 x 64 x 2, SNC-4).
func ScaleTopology(numCPUs int) (Topology, error) {
	switch numCPUs {
	case 56:
		return DefaultTopology(), nil
	case 256:
		return Topology{Sockets: 4, CoresPerSocket: 32, ThreadsPerCore: 2, SNCPerSocket: 2}, nil
	case 512:
		return Topology{Sockets: 8, CoresPerSocket: 32, ThreadsPerCore: 2, SNCPerSocket: 2}, nil
	case 1024:
		return Topology{Sockets: 8, CoresPerSocket: 64, ThreadsPerCore: 2, SNCPerSocket: 4}, nil
	}
	return Topology{}, fmt.Errorf("mach: no scale preset for %d CPUs (have 56, 256, 512, 1024)", numCPUs)
}

// ScaleCPUCounts lists the preset sizes in ascending order.
func ScaleCPUCounts() []int { return []int{56, 256, 512, 1024} }

// ParseTopology parses a topology flag value: either a preset CPU count
// ("56", "256", "512", "1024", or "default") or an explicit
// "sockets x cores x threads [x snc]" spec such as "4x32x2" or "8x32x2x2".
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "", "default":
		return DefaultTopology(), nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		return ScaleTopology(n)
	}
	parts := strings.Split(s, "x")
	if len(parts) != 3 && len(parts) != 4 {
		return Topology{}, fmt.Errorf("mach: topology %q is neither a preset CPU count nor SxCxT[xN]", s)
	}
	nums := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return Topology{}, fmt.Errorf("mach: topology %q: bad component %q", s, p)
		}
		nums[i] = n
	}
	t := Topology{Sockets: nums[0], CoresPerSocket: nums[1], ThreadsPerCore: nums[2]}
	if len(nums) == 4 {
		t.SNCPerSocket = nums[3]
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Spec renders the topology as the canonical SxCxT[xN] flag spelling.
func (t Topology) Spec() string {
	s := fmt.Sprintf("%dx%dx%d", t.Sockets, t.CoresPerSocket, t.ThreadsPerCore)
	if t.SNCPerSocket > 1 {
		s += fmt.Sprintf("x%d", t.SNCPerSocket)
	}
	return s
}

// Distance classifies the communication distance between two logical CPUs.
type Distance int

const (
	// DistSelf is the same logical CPU.
	DistSelf Distance = iota
	// DistSMT is a sibling hardware thread on the same physical core.
	DistSMT
	// DistSocket is a different core on the same socket.
	DistSocket
	// DistCross is a core on a different socket, across the interconnect.
	DistCross
)

// String returns a short human-readable name for the distance class.
func (d Distance) String() string {
	switch d {
	case DistSelf:
		return "self"
	case DistSMT:
		return "smt"
	case DistSocket:
		return "socket"
	case DistCross:
		return "cross"
	}
	return fmt.Sprintf("Distance(%d)", int(d))
}

// DistanceBetween returns the distance class from a to b.
func (t Topology) DistanceBetween(a, b CPU) Distance {
	switch {
	case a == b:
		return DistSelf
	case t.SameCore(a, b):
		return DistSMT
	case t.SameSocket(a, b):
		return DistSocket
	default:
		return DistCross
	}
}

// NearestIn returns the smallest DistanceBetween(cpu, c) over the members c
// of m, or DistCross when m is empty. Ids are numbered socket-major,
// core-major, thread-minor, so each distance class around cpu is a
// contiguous id range (its core, then its socket, then the rest) and the
// answer comes from a few range tests on m, without walking its members or
// allocating.
func (t Topology) NearestIn(cpu CPU, m CPUMask) Distance {
	coreLo, coreHi, sockLo, sockHi := t.ranges(cpu)
	switch {
	case m.Has(cpu):
		return DistSelf
	case m.AnyIn(coreLo, coreHi):
		return DistSMT
	case m.AnyIn(sockLo, sockHi):
		return DistSocket
	}
	return DistCross
}

// FarthestIn returns the largest DistanceBetween(cpu, c) over the members c
// of m other than cpu, or DistSelf when there is none. It tests the same
// id ranges as NearestIn, from the outermost class inward.
func (t Topology) FarthestIn(cpu CPU, m CPUMask) Distance {
	coreLo, coreHi, sockLo, sockHi := t.ranges(cpu)
	switch {
	case m.AnyIn(0, sockLo) || m.AnyIn(sockHi, MaxCPUs):
		return DistCross
	case m.AnyIn(sockLo, coreLo) || m.AnyIn(coreHi, sockHi):
		return DistSocket
	case m.AnyIn(coreLo, cpu) || m.AnyIn(cpu+1, coreHi):
		return DistSMT
	}
	return DistSelf
}

// ranges returns the id ranges [coreLo, coreHi) of cpu's physical core and
// [sockLo, sockHi) of its socket.
func (t Topology) ranges(cpu CPU) (coreLo, coreHi, sockLo, sockHi CPU) {
	coreLo = CPU(t.CoreOf(cpu) * t.ThreadsPerCore)
	perSocket := t.CoresPerSocket * t.ThreadsPerCore
	sockLo = CPU(t.SocketOf(cpu) * perSocket)
	return coreLo, coreLo + CPU(t.ThreadsPerCore), sockLo, sockLo + CPU(perSocket)
}

// Placement names the initiator/responder placements used throughout the
// paper's microbenchmarks (Figures 5-8).
type Placement int

const (
	// PlaceSameCore puts the responder on the initiator's SMT sibling.
	PlaceSameCore Placement = iota
	// PlaceSameSocket puts the responder on another core of the same socket.
	PlaceSameSocket
	// PlaceCrossSocket puts the responder on the other socket.
	PlaceCrossSocket
)

// String returns the placement name as used in experiment output.
func (p Placement) String() string {
	switch p {
	case PlaceSameCore:
		return "same-core"
	case PlaceSameSocket:
		return "same-socket"
	case PlaceCrossSocket:
		return "cross-socket"
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Placements lists all placements in presentation order.
func Placements() []Placement {
	return []Placement{PlaceSameCore, PlaceSameSocket, PlaceCrossSocket}
}

// ResponderFor picks a responder CPU for the given initiator and placement.
func (t Topology) ResponderFor(initiator CPU, p Placement) CPU {
	switch p {
	case PlaceSameCore:
		if t.ThreadsPerCore < 2 {
			panic("mach: same-core placement requires SMT")
		}
		return t.SMTSibling(initiator)
	case PlaceSameSocket:
		sib := t.SMTSibling(initiator)
		for _, c := range t.CPUsOfSocket(t.SocketOf(initiator)) {
			if c != initiator && c != sib {
				return c
			}
		}
		panic("mach: no same-socket responder available")
	case PlaceCrossSocket:
		if t.Sockets < 2 {
			panic("mach: cross-socket placement requires >= 2 sockets")
		}
		other := (t.SocketOf(initiator) + 1) % t.Sockets
		return t.CPUsOfSocket(other)[0]
	}
	panic("mach: unknown placement")
}
