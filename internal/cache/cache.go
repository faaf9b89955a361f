// Package cache models cacheline coherence costs between simulated CPUs.
//
// Kernel data structures involved in a TLB shootdown (per-CPU TLB state,
// call-function data, call-single queues) are declared as Lines. Each
// simulated access consults a MESI-style state machine and returns the
// latency of the access: a local hit, a transfer from an SMT sibling, a
// same-socket snoop, or a cross-interconnect transfer. Cacheline
// consolidation (paper §3.3) works purely by reducing the number of
// distinct contended Lines the shootdown protocol touches; the savings
// emerge from this model rather than being hard-coded.
package cache

import (
	"fmt"

	"shootdown/internal/mach"
)

// State is the coherence state of a line, from the owner's perspective.
type State uint8

const (
	// Invalid: no CPU holds the line.
	Invalid State = iota
	// Shared: one or more CPUs hold read-only copies.
	Shared
	// Exclusive: exactly one CPU holds a clean copy.
	Exclusive
	// Modified: exactly one CPU holds a dirty copy.
	Modified
)

// String returns the MESI letter for the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one 64-byte cacheline of simulated kernel data: its MESI state
// alone. Traffic is counted per Directory (Stats), not per line.
type Line struct {
	state   State
	owner   mach.CPU // valid when state is Exclusive or Modified
	sharers mach.CPUMask
}

// State returns the current coherence state.
func (l *Line) State() State { return l.state }

// Stats aggregates coherence traffic across all lines of a Directory.
type Stats struct {
	Reads, Writes uint64
	// TransfersByDist counts line movements by distance class.
	TransfersByDist [4]uint64
}

// Transfers returns the total number of line movements.
func (s Stats) Transfers() uint64 {
	var n uint64
	for _, v := range s.TransfersByDist {
		n += v
	}
	return n
}

// Directory charges access costs to simulated cachelines and counts the
// traffic.
type Directory struct {
	topo  mach.Topology
	cost  *mach.CostModel
	stats Stats
}

// New returns an empty directory for the given machine.
func New(topo mach.Topology, cost *mach.CostModel) *Directory {
	return &Directory{topo: topo, cost: cost}
}

// Stats returns a snapshot of aggregate coherence traffic.
func (d *Directory) Stats() Stats { return d.stats }

// ResetStats zeroes the aggregate counters.
func (d *Directory) ResetStats() { d.stats = Stats{} }

// NewLine allocates a fresh cacheline.
func (d *Directory) NewLine() *Line { return &Line{} }

// Read charges a load of line by cpu and returns its latency in cycles.
func (d *Directory) Read(cpu mach.CPU, l *Line) uint64 {
	d.stats.Reads++
	switch l.state {
	case Invalid:
		// First touch: fill from memory into E state locally. Kernel data
		// is assumed resident, so this is a cheap fill.
		l.state = Exclusive
		l.owner = cpu
		return d.cost.L1Hit
	case Shared:
		if l.sharers.Has(cpu) {
			return d.cost.L1Hit
		}
		dist := d.topo.NearestIn(cpu, l.sharers)
		l.sharers.Set(cpu)
		d.stats.TransfersByDist[dist]++
		return d.cost.TransferCost(dist)
	case Exclusive, Modified:
		if l.owner == cpu {
			return d.cost.L1Hit
		}
		dist := d.topo.DistanceBetween(cpu, l.owner)
		// Owner downgrades to Shared; reader joins. The sharer mask is
		// refilled in place, so a warm line allocates nothing.
		l.sharers.Reset()
		l.sharers.Set(l.owner)
		l.sharers.Set(cpu)
		l.state = Shared
		d.stats.TransfersByDist[dist]++
		return d.cost.TransferCost(dist)
	}
	panic("cache: invalid line state")
}

// Write charges a store to line by cpu and returns its latency in cycles.
// All other copies are invalidated (request-for-ownership).
func (d *Directory) Write(cpu mach.CPU, l *Line) uint64 {
	d.stats.Writes++
	var cycles uint64
	switch l.state {
	case Invalid:
		cycles = d.cost.L1Hit
	case Exclusive, Modified:
		if l.owner == cpu {
			cycles = d.cost.L1Hit
		} else {
			dist := d.topo.DistanceBetween(cpu, l.owner)
			d.stats.TransfersByDist[dist]++
			cycles = d.cost.TransferCost(dist)
		}
	case Shared:
		if l.sharers.Has(cpu) && l.sharers.Count() == 1 {
			cycles = d.cost.L1Hit
		} else {
			// Invalidate every other copy; the farthest holder dominates
			// the RFO latency.
			dist := d.topo.FarthestIn(cpu, l.sharers)
			d.stats.TransfersByDist[dist]++
			cycles = d.cost.TransferCost(dist)
		}
	}
	l.state = Modified
	l.owner = cpu
	l.sharers.Reset()
	return cycles
}

// Atomic charges a locked read-modify-write (e.g. atomic_dec of a shootdown
// refcount) and returns its latency.
func (d *Directory) Atomic(cpu mach.CPU, l *Line) uint64 {
	return d.Write(cpu, l) + d.cost.AtomicRMW
}
