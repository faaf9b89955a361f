package cache

import (
	"math/rand"
	"testing"

	"shootdown/internal/mach"
)

// walkDirectory is the directory as it was before sharer distance came from
// id-range tests: a Shared line's nearest and farthest sharer are found by
// walking a copy of the sharer mask and calling DistanceBetween on each
// member. TestDirectoryDifferential checks Directory against it.
type walkDirectory struct {
	topo  mach.Topology
	cost  *mach.CostModel
	stats Stats
}

type walkLine struct {
	state   State
	owner   mach.CPU
	sharers mach.CPUMask
}

func (d *walkDirectory) Read(cpu mach.CPU, l *walkLine) uint64 {
	d.stats.Reads++
	switch l.state {
	case Invalid:
		l.state = Exclusive
		l.owner = cpu
		return d.cost.L1Hit
	case Shared:
		if l.sharers.Has(cpu) {
			return d.cost.L1Hit
		}
		dist := d.nearestHolder(cpu, l.sharers)
		l.sharers.Set(cpu)
		d.recordTransfer(dist)
		return d.cost.TransferCost(dist)
	}
	if l.owner == cpu {
		return d.cost.L1Hit
	}
	dist := d.topo.DistanceBetween(cpu, l.owner)
	l.sharers = mach.MaskOf(l.owner, cpu)
	l.state = Shared
	d.recordTransfer(dist)
	return d.cost.TransferCost(dist)
}

func (d *walkDirectory) Write(cpu mach.CPU, l *walkLine) uint64 {
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
			d.recordTransfer(dist)
			cycles = d.cost.TransferCost(dist)
		}
	case Shared:
		if l.sharers.Has(cpu) && l.sharers.Count() == 1 {
			cycles = d.cost.L1Hit
		} else {
			others := l.sharers.Clone()
			others.Clear(cpu)
			dist := d.farthestHolder(cpu, others)
			d.recordTransfer(dist)
			cycles = d.cost.TransferCost(dist)
		}
	}
	l.state = Modified
	l.owner = cpu
	l.sharers = mach.CPUMask{}
	return cycles
}

func (d *walkDirectory) recordTransfer(dist mach.Distance) {
	d.stats.TransfersByDist[dist]++
}

func (d *walkDirectory) nearestHolder(cpu mach.CPU, holders mach.CPUMask) mach.Distance {
	best := mach.DistCross
	for _, h := range holders.CPUs() {
		if dd := d.topo.DistanceBetween(cpu, h); dd < best {
			best = dd
		}
	}
	return best
}

func (d *walkDirectory) farthestHolder(cpu mach.CPU, holders mach.CPUMask) mach.Distance {
	worst := mach.DistSelf
	for _, h := range holders.CPUs() {
		if dd := d.topo.DistanceBetween(cpu, h); dd > worst {
			worst = dd
		}
	}
	return worst
}

// TestDirectoryDifferential runs seeded random Read/Write/Atomic programs
// over a few lines through Directory and walkDirectory in lock-step and
// compares the charged cycles, each line's state, owner and sharers, and
// the aggregate Stats after every operation. CPUs are
// drawn near the previous one as often as at random, and occasional
// broadcast bursts give lines hundreds of sharers.
func TestDirectoryDifferential(t *testing.T) {
	for _, spec := range []string{"56", "256", "512", "1024", "1x3x1", "3x5x4", "2x1x2"} {
		topo, err := mach.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec, func(t *testing.T) {
			n := topo.NumCPUs()
			perSocket := topo.CoresPerSocket * topo.ThreadsPerCore
			cost := mach.DefaultCosts()
			for prog := 0; prog < 40; prog++ {
				rng := rand.New(rand.NewSource(int64(n)<<8 + int64(prog)))
				d := New(topo, cost)
				ref := &walkDirectory{topo: topo, cost: cost}
				lines := make([]*Line, 1+rng.Intn(4))
				refs := make([]*walkLine, len(lines))
				for i := range lines {
					lines[i] = d.NewLine()
					refs[i] = &walkLine{}
				}
				var cpu mach.CPU
				pick := func() mach.CPU {
					switch r := rng.Intn(10); {
					case r < 4:
						cpu = mach.CPU(rng.Intn(n))
					case r < 7: // same socket
						cpu = mach.CPU(int(cpu)/perSocket*perSocket + rng.Intn(perSocket))
					case r < 9: // same core
						cpu = mach.CPU(topo.CoreOf(cpu)*topo.ThreadsPerCore + rng.Intn(topo.ThreadsPerCore))
					}
					return cpu
				}
				step := func(op int, c mach.CPU, li int) {
					t.Helper()
					l, rl := lines[li], refs[li]
					var got, want uint64
					switch op {
					case 0:
						got, want = d.Read(c, l), ref.Read(c, rl)
					case 1:
						got, want = d.Write(c, l), ref.Write(c, rl)
					default:
						got, want = d.Atomic(c, l), ref.Write(c, rl)+cost.AtomicRMW
					}
					if got != want {
						t.Fatalf("program %d, op %d by CPU %d on line %d: %d cycles, walk charges %d", prog, op, c, li, got, want)
					}
					if l.State() != rl.state || l.owner != rl.owner || !l.sharers.Equal(rl.sharers) {
						t.Fatalf("program %d, op %d by CPU %d on line %d: line %v owner %d sharers %v, walk has %v owner %d sharers %v",
							prog, op, c, li, l.State(), l.owner, l.sharers, rl.state, rl.owner, rl.sharers)
					}
					if d.Stats() != ref.stats {
						t.Fatalf("program %d: Stats %+v, walk has %+v", prog, d.Stats(), ref.stats)
					}
				}
				for i := 0; i < 300; i++ {
					li := rng.Intn(len(lines))
					if rng.Intn(40) == 0 {
						for k := rng.Intn(n); k >= 0; k-- {
							step(0, mach.CPU(rng.Intn(n)), li)
						}
						continue
					}
					op := 0
					if r := rng.Intn(10); r >= 8 {
						op = 2
					} else if r >= 6 {
						op = 1
					}
					step(op, pick(), li)
				}
			}
		})
	}
}
