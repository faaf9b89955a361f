package smp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// scanRule is the batch completion rule that per-batch owed counts
// replaced, kept as the reference: after every non-empty drain, each
// registered batch whose targets have all acked the sequences it posted
// completes, scanned in posting order.
type scanRule struct {
	l           *Layer
	posted      map[mach.CPU]uint64
	outstanding []*refBatch
	registered  uint64
	// inflight is the post in progress until PostAsync registers it.
	inflight *refBatch
}

type refBatch struct {
	id      int
	targets []mach.CPU
	seqs    []uint64
}

// post numbers a post the way PostAsync does, each target's next
// sequence. One poster makes every post, so no other post interleaves.
func (s *scanRule) post(id int, targets []mach.CPU) {
	b := &refBatch{id: id, targets: targets}
	for _, t := range targets {
		s.posted[t]++
		b.seqs = append(b.seqs, s.posted[t])
	}
	s.inflight = nil
	if len(targets) > 0 {
		s.inflight = b
	}
}

// sync registers the in-flight post once PostAsync has counted it: the
// count and the registration append happen with no yield between them.
func (s *scanRule) sync() {
	if s.inflight != nil && s.l.stats.AsyncBatches > s.registered {
		s.outstanding = append(s.outstanding, s.inflight)
		s.registered++
		s.inflight = nil
	}
}

// complete applies the rule after a drain and returns the ids of the
// batches it completes, in posting order.
func (s *scanRule) complete() []int {
	s.sync()
	var done []int
	live := s.outstanding[:0]
	for _, b := range s.outstanding {
		if s.acked(b) {
			done = append(done, b.id)
		} else {
			live = append(live, b)
		}
	}
	s.outstanding = live
	return done
}

func (s *scanRule) acked(b *refBatch) bool {
	for i, t := range b.targets {
		if s.l.fabric[t].fabAckSeq < b.seqs[i] {
			return false
		}
	}
	return true
}

// retireCoverage counts the situations the seeded programs must reach.
type retireCoverage struct {
	midPost, multi, empty                   int
	overflows, coalesced, rekicks, degrades uint64
}

// runRetireProgram runs one seeded program on eight CPUs: one poster
// posting random batches (empty target sets included) from random
// initiators, and a proc per CPU that drains on every kick and, while
// posts continue, at random times (the return-to-user drain, which also
// lands inside a post's loop). As in the kernel, a CPU's drains run on its
// own proc, one at a time. Under drops a fault schedule loses kicks, only
// half the CPUs sweep, and the watchdog rekicks and degrades. After every
// drain and every post the fired callbacks and OutstandingBatches must be
// what scanRule gives.
func runRetireProgram(t *testing.T, seed int64, drops bool, cov *retireCoverage) {
	t.Helper()
	const ncpu = 8
	rng := rand.New(rand.NewSource(seed))
	r := newRig(false)
	defer r.eng.Shutdown()
	r.l.SetDrainApplier(func(p *sim.Proc, cpu mach.CPU, batch []Inval) {
		p.Delay(uint64(rng.Intn(400)))
	})
	sweepCPUs, sweepGap := ncpu, 4000
	if drops {
		pl := fault.New(uint64(seed), fault.Spec{DropP: 0.9, DropBurstMax: 8})
		r.bus.SetFaultPlane(pl)
		r.l.SetFaultPlane(pl)
		sweepCPUs, sweepGap = ncpu/2, 20000
	}
	ref := &scanRule{l: r.l, posted: make(map[mach.CPU]uint64)}
	type firing struct {
		id int
		p  *sim.Proc
	}
	var fired []firing
	times := make(map[int]int)
	var bad error
	fail := func(format string, args ...any) {
		if bad == nil {
			bad = fmt.Errorf(format, args...)
		}
	}
	checkOutstanding := func(when string) {
		if got, want := r.l.OutstandingBatches(), len(ref.outstanding); got != want {
			fail("%s: OutstandingBatches = %d, the scan rule leaves %d", when, got, want)
		}
	}
	drain := func(p *sim.Proc, cpu mach.CPU) {
		fc := r.l.fabricOf(cpu)
		if len(fc.fabRing) == 0 && !fc.fabFlushAll {
			r.l.DrainFabric(p, cpu) // empty: returns before acking
			return
		}
		mark := len(fired)
		r.l.DrainFabric(p, cpu)
		var got []int
		for _, f := range fired[mark:] {
			if f.p == p {
				got = append(got, f.id)
			}
		}
		if b := ref.inflight; b != nil && r.l.stats.AsyncBatches == ref.registered {
			if i := slices.Index(b.targets, cpu); i >= 0 && fc.fabAckSeq >= b.seqs[i] {
				cov.midPost++ // acked before PostAsync registered the batch
			}
		}
		want := ref.complete()
		if !slices.Equal(got, want) {
			fail("t=%d drain of cpu%d fired %v, the scan rule completes %v", p.Now(), cpu, got, want)
		}
		if len(want) > 1 {
			cov.multi++
		}
		checkOutstanding(fmt.Sprintf("after the drain of cpu%d at t=%d", cpu, p.Now()))
	}
	posting := true
	for c := mach.CPU(0); c < ncpu; c++ {
		ctrl := r.bus.Controller(c)
		arrived := r.eng.NewCond()
		ctrl.SetNotify(arrived.Broadcast)
		sweeps := int(c) < sweepCPUs
		r.eng.Go(fmt.Sprintf("cpu%d", c), func(p *sim.Proc) {
			for {
				switch {
				case ctrl.Deliverable():
					if _, ok := ctrl.Take(); ok {
						drain(p, c)
					}
				case sweeps && posting:
					if !arrived.WaitTimeout(p, uint64(1+rng.Intn(sweepGap))) {
						drain(p, c)
					}
				default:
					arrived.Wait(p)
				}
			}
		})
	}
	const posts = 160
	gen := make(map[uint32]uint64)
	r.eng.Go("poster", func(p *sim.Proc) {
		for id := 0; id < posts; id++ {
			p.Delay(uint64(rng.Intn(300)))
			from := mach.CPU(rng.Intn(ncpu))
			var targets mach.CPUMask
			for c := mach.CPU(0); c < ncpu; c++ {
				if c != from && rng.Intn(3) == 0 {
					targets.Set(c)
				}
			}
			asid := uint32(1 + rng.Intn(3))
			lo := gen[asid] + 1
			gen[asid] += uint64(1 + rng.Intn(2))
			start := uint64(rng.Intn(8)) << 12
			inv := Inval{ASID: asid, Start: start, End: start + uint64(1+rng.Intn(3))<<12,
				Stride: 4096, GenLo: lo, GenHi: gen[asid], Full: rng.Intn(10) == 0}
			ref.post(id, targets.CPUs())
			mark := len(fired)
			r.l.PostAsync(p, from, targets, inv, func(q *sim.Proc) {
				fired = append(fired, firing{id, q})
				times[id]++
			})
			if targets.Empty() {
				cov.empty++
				if len(fired) != mark+1 || fired[mark] != (firing{id, p}) {
					fail("empty post %d did not complete inline: fired %v", id, fired[mark:])
				}
			}
			ref.sync()
			checkOutstanding(fmt.Sprintf("after post %d", id))
		}
		posting = false
	})
	r.eng.Run()
	if bad != nil {
		t.Fatalf("seed %d (drops=%v): %v", seed, drops, bad)
	}
	if n := r.l.OutstandingBatches(); n != 0 || len(ref.outstanding) != 0 || ref.inflight != nil {
		t.Fatalf("seed %d: %d batches outstanding at quiesce (scan rule: %d)", seed, n, len(ref.outstanding))
	}
	for id := 0; id < posts; id++ {
		if times[id] != 1 {
			t.Fatalf("seed %d: batch %d completed %d times", seed, id, times[id])
		}
	}
	s := r.l.Stats()
	cov.overflows += s.AsyncOverflows
	cov.coalesced += s.AsyncCoalesced
	cov.rekicks += s.AsyncRekicks
	cov.degrades += s.AsyncDegrades
}

// TestBatchRetirementMatchesScanRule runs seeded programs through the
// owed-count retirement and checks every step against scanRule, the rule
// it replaced.
func TestBatchRetirementMatchesScanRule(t *testing.T) {
	var cov retireCoverage
	for seed := int64(1); seed <= 24; seed++ {
		runRetireProgram(t, seed, seed%2 == 0, &cov)
	}
	t.Logf("coverage: %+v", cov)
	if cov.midPost == 0 || cov.multi == 0 || cov.empty == 0 || cov.overflows == 0 ||
		cov.coalesced == 0 || cov.rekicks == 0 || cov.degrades == 0 {
		t.Fatalf("programs missed a case: %+v", cov)
	}
}

// TestBatchRetirementLoadsOnlyCompletedTargets: with a race detector
// attached, a drain records its own loads of the ring head, the flush_all
// flag and the posted sequence, and retirement one load per target of
// each batch it completes, whatever else is outstanding.
func TestBatchRetirementLoadsOnlyCompletedTargets(t *testing.T) {
	const drainLoads = 3
	r := newRig(false)
	d := race.New(r.eng)
	r.l.SetRaceDetector(d)
	r.recordApplier()
	for c := mach.CPU(1); c <= 4; c++ {
		r.bus.Controller(c).SetMasked(true) // only the test drains
	}
	batches := [][]mach.CPU{{1, 2}, {2, 3, 4}, {1}, {3, 4}}
	var fired []int
	r.eng.Go("poster", func(p *sim.Proc) {
		for id, cpus := range batches {
			r.l.PostAsync(p, 0, mach.MaskOf(cpus...),
				Inval{ASID: uint32(id + 1), Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1},
				func(*sim.Proc) { fired = append(fired, id) })
		}
	})
	r.eng.Run()
	loads := func() uint64 { return d.Finish().Stats.AtomicLoads }
	for _, step := range []struct {
		cpu  mach.CPU
		want []int
	}{{2, nil}, {1, []int{0, 2}}, {4, nil}, {3, []int{1, 3}}} {
		before, mark := loads(), len(fired)
		r.eng.Go("drain", func(p *sim.Proc) { r.l.DrainFabric(p, step.cpu) })
		r.eng.Run()
		if got := fired[mark:]; !slices.Equal(got, step.want) {
			t.Fatalf("drain of cpu%d completed %v, want %v", step.cpu, got, step.want)
		}
		want := uint64(drainLoads)
		for _, id := range step.want {
			want += uint64(len(batches[id]))
		}
		if got := loads() - before; got != want {
			t.Errorf("drain of cpu%d recorded %d loads, want %d", step.cpu, got, want)
		}
	}
	if sum := d.Finish(); !sum.OK() {
		t.Fatalf("race model flagged the retirement: %+v", sum.Races)
	}
}
