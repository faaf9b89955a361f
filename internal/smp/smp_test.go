package smp

import (
	"testing"

	"shootdown/internal/apic"
	"shootdown/internal/cache"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

type rig struct {
	eng  *sim.Engine
	topo mach.Topology
	cost *mach.CostModel
	dir  *cache.Directory
	bus  *apic.Bus
	l    *Layer
}

func newRig(consolidated bool) *rig {
	eng := sim.NewEngine(1)
	topo := mach.DefaultTopology()
	cost := mach.DefaultCosts()
	dir := cache.New(topo, cost)
	bus := apic.NewBus(eng, topo, cost)
	r := &rig{eng: eng, topo: topo, cost: cost, dir: dir, bus: bus}
	r.l = New(eng, topo, cost, dir, bus, r.waitAcks)
	r.l.SetLayout(consolidated, false)
	return r
}

// spawnResponder runs a minimal IRQ loop on cpu: it sleeps until the APIC
// notifies, then drains the call-function queue. It exits after handling
// `quota` IPIs.
func (r *rig) spawnResponder(cpu mach.CPU, quota int) {
	ctrl := r.bus.Controller(cpu)
	irqArrived := r.eng.NewCond()
	ctrl.SetNotify(func() { irqArrived.Broadcast() })
	r.eng.Go("responder", func(p *sim.Proc) {
		for handled := 0; handled < quota; {
			if !ctrl.Deliverable() {
				irqArrived.Wait(p)
				continue
			}
			if _, ok := ctrl.Take(); ok {
				r.l.HandleIPI(p, cpu)
				handled++
			}
		}
	})
}

// waitAcks is the rig's ack wait, the one every Shoot ends in: it parks p
// until every request is acknowledged, woken through the requests' waker,
// and observes the acks. It is the kernel's wait without its IRQ
// servicing and recovery ladder.
func (r *rig) waitAcks(p *sim.Proc, _ mach.CPU, reqs []*Request) {
	wake := r.eng.NewCond()
	for _, q := range reqs {
		q.SetWaker(wake)
	}
	for !AllDone(reqs) {
		wake.Wait(p)
	}
	for _, q := range reqs {
		r.l.ObserveDone(q)
	}
}

func TestShootRoundTrip(t *testing.T) {
	r := newRig(false)
	r.spawnResponder(2, 1)
	var ranOn mach.CPU = -1
	var payloadGot any
	var reqs []*Request
	r.eng.Go("initiator", func(p *sim.Proc) {
		r.l.Shoot(p, 0, mach.MaskOf(2), func(p *sim.Proc, cpu mach.CPU, payload any) {
			ranOn = cpu
			payloadGot = payload
		}, "info", false, r.dir.NewLine(), func(q []*Request) { reqs = q })
		if !AllDone(reqs) {
			t.Error("Shoot returned before ack")
		}
	})
	r.eng.Run()
	if ranOn != 2 || payloadGot != "info" {
		t.Fatalf("handler ran on %d with %v", ranOn, payloadGot)
	}
	s := r.l.Stats()
	if s.Calls != 1 || s.Kicks != 1 || s.LateAcks != 1 || s.EarlyAcks != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestShootOverlapsThenWaits: Shoot calls overlap once every request is
// queued and kicked and before any is acknowledged, and returns only
// after the last ack; with a nil overlap it is a plain kick then wait.
func TestShootOverlapsThenWaits(t *testing.T) {
	const flush = 5000 // the responder's handler: a slow remote flush
	run := func(shoot func(r *rig, p *sim.Proc, fn HandlerFunc)) (s Stats, handled, returned sim.Time) {
		r := newRig(false)
		r.spawnResponder(2, 1)
		r.eng.Go("initiator", func(p *sim.Proc) {
			shoot(r, p, func(p *sim.Proc, _ mach.CPU, _ any) {
				p.Delay(flush)
				handled = p.Now()
			})
			returned = p.Now()
		})
		r.eng.Run()
		return r.l.Stats(), handled, returned
	}
	var reqs []*Request
	s, handled, returned := run(func(r *rig, p *sim.Proc, fn HandlerFunc) {
		r.l.Shoot(p, 0, mach.MaskOf(2), fn, nil, false, nil, func(q []*Request) {
			reqs = q
			if s := r.l.Stats(); len(q) != 1 || q[0].Target() != 2 || s.Calls != 1 || s.Kicks != 1 {
				t.Errorf("overlap ran before the request was queued and kicked: %d requests, stats %+v", len(q), s)
			}
			if AnyDone(q) {
				t.Error("overlap ran after an ack")
			}
		})
	})
	if reqs == nil {
		t.Fatal("overlap never ran")
	}
	if !AllDone(reqs) || returned < handled || s.LateAcks != 1 {
		t.Fatalf("Shoot returned at %d, handler done at %d, acked %v, stats %+v: want a return after the ack", returned, handled, AllDone(reqs), s)
	}

	sNil, _, returnedNil := run(func(r *rig, p *sim.Proc, fn HandlerFunc) {
		r.l.Shoot(p, 0, mach.MaskOf(2), fn, nil, false, nil, nil)
	})
	sPlain, _, returnedPlain := run(func(r *rig, p *sim.Proc, fn HandlerFunc) {
		r.waitAcks(p, 0, r.l.callMany(p, 0, mach.MaskOf(2), fn, nil, false, nil))
	})
	if returnedNil != returnedPlain || sNil != sPlain || returned != returnedPlain {
		t.Fatalf("nil overlap: returned at %d with %+v; kick then wait: %d with %+v (overlap: %d)",
			returnedNil, sNil, returnedPlain, sPlain, returned)
	}
}

func TestEarlyAckOrdering(t *testing.T) {
	// With AckEarly, the initiator's wait can complete before the handler
	// body finishes (the handler models a slow flush by delaying).
	run := func(early bool) (waitDone, fnDone sim.Time) {
		r := newRig(false)
		r.spawnResponder(2, 1)
		r.eng.Go("initiator", func(p *sim.Proc) {
			r.l.Shoot(p, 0, mach.MaskOf(2), func(p *sim.Proc, cpu mach.CPU, _ any) {
				p.Delay(5000) // slow remote flush
				fnDone = p.Now()
			}, nil, early, nil, nil)
			waitDone = p.Now()
		})
		r.eng.Run()
		return
	}
	lateWait, lateFn := run(false)
	earlyWait, earlyFn := run(true)
	if lateWait < lateFn {
		t.Fatalf("late ack: initiator done at %d before handler at %d", lateWait, lateFn)
	}
	if earlyWait >= earlyFn {
		t.Fatalf("early ack: initiator done at %d, not before handler end %d", earlyWait, earlyFn)
	}
	if earlyWait >= lateWait {
		t.Fatalf("early ack did not speed up initiator: %d vs %d", earlyWait, lateWait)
	}
}

func TestKickElidedWhenQueueBusy(t *testing.T) {
	r := newRig(false)
	// Responder that never runs: queue stays populated.
	r.bus.Controller(2).SetMasked(true)
	r.eng.Go("a", func(p *sim.Proc) {
		r.l.callMany(p, 0, mach.MaskOf(2), func(*sim.Proc, mach.CPU, any) {}, nil, false, nil)
	})
	r.eng.Go("b", func(p *sim.Proc) {
		p.Delay(10)
		r.l.callMany(p, 1, mach.MaskOf(2), func(*sim.Proc, mach.CPU, any) {}, nil, false, nil)
	})
	r.eng.Run()
	s := r.l.Stats()
	if s.Kicks != 1 || s.KicksElided != 1 {
		t.Fatalf("stats = %+v, want 1 kick + 1 elided", s)
	}
	if r.l.PendingOn(2) != 2 {
		t.Fatalf("pending = %d", r.l.PendingOn(2))
	}
}

func TestConsolidatedLayoutSharesLines(t *testing.T) {
	rc := newRig(true)
	if rc.l.LazyLine(3) != rc.l.CSQLine(3) {
		t.Fatal("consolidated: lazy line must alias the CSQ head line")
	}
	if rc.l.LazyLine(3) == rc.l.GenLine(3) {
		t.Fatal("consolidated: gen state must be off the lazy line")
	}
	rb := newRig(false)
	if rb.l.LazyLine(3) != rb.l.GenLine(3) {
		t.Fatal("baseline: lazy flag and gen state share a line (false sharing)")
	}
	// Compare total cacheline transfers of a full shootdown-shaped
	// exchange under both layouts: the consolidated layout must move
	// fewer lines (paper Figure 4).
	countTransfers := func(consolidated bool) uint64 {
		r := newRig(consolidated)
		r.spawnResponder(30, 1)
		var infoLine *cache.Line
		if !consolidated {
			infoLine = r.dir.NewLine()
		}
		handler := func(p *sim.Proc, cpu mach.CPU, _ any) {
			// The flush function updates per-CPU TLB generation state.
			p.Delay(r.dir.Write(cpu, r.l.GenLine(cpu)))
		}
		r.eng.Go("init", func(p *sim.Proc) {
			// Responder recently wrote its own per-CPU TLB state.
			p.Delay(r.dir.Write(30, r.l.GenLine(30)))
			// Initiator checks lazy mode, then queues.
			p.Delay(r.dir.Read(0, r.l.LazyLine(30)))
			if infoLine != nil {
				p.Delay(r.dir.Write(0, infoLine))
			}
			r.l.Shoot(p, 0, mach.MaskOf(30), handler, nil, false, infoLine, nil)
		})
		r.eng.Run()
		return r.dir.Stats().Transfers()
	}
	base := countTransfers(false)
	cons := countTransfers(true)
	if cons >= base {
		t.Fatalf("consolidated transfers (%d) not fewer than baseline (%d)", cons, base)
	}
}

func TestSelfTargetPanics(t *testing.T) {
	r := newRig(false)
	r.eng.Go("init", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("self-target did not panic")
			}
		}()
		r.l.Shoot(p, 0, mach.MaskOf(0), func(*sim.Proc, mach.CPU, any) {}, nil, false, nil, nil)
	})
	r.eng.Run()
}

func TestHWMessageIPIRoundTrip(t *testing.T) {
	// The §6 hardware model: the IPI carries fn+payload, so queueing and
	// reading cost no shared cacheline traffic and every target is kicked.
	r := newRig(false)
	r.l.SetLayout(false, true)
	r.spawnResponder(2, 1)
	r.spawnResponder(4, 1)
	ran := map[mach.CPU]bool{}
	r.eng.Go("init", func(p *sim.Proc) {
		r.l.Shoot(p, 0, mach.MaskOf(2, 4), func(_ *sim.Proc, cpu mach.CPU, _ any) {
			ran[cpu] = true
		}, nil, false, nil, nil)
	})
	r.eng.Run()
	if len(ran) != 2 {
		t.Fatalf("handled on %d CPUs, want 2: %v", len(ran), ran)
	}
	if s := r.l.Stats(); s.Kicks != 2 || s.KicksElided != 0 {
		t.Fatalf("stats = %+v: hwMessage kicks every target", s)
	}
}

func TestAnyAllDone(t *testing.T) {
	pending, acked := &Request{}, &Request{acked: true}
	if AnyDone([]*Request{pending}) || !AnyDone([]*Request{pending, acked}) {
		t.Fatal("AnyDone wrong")
	}
	if AllDone([]*Request{pending, acked}) || !AllDone([]*Request{acked}) {
		t.Fatal("AllDone wrong")
	}
}

func TestMultiTargetAllHandled(t *testing.T) {
	r := newRig(false)
	targets := mach.MaskOf(2, 4, 6, 30, 32)
	for _, c := range targets.CPUs() {
		r.spawnResponder(c, 1)
	}
	ran := map[mach.CPU]bool{}
	r.eng.Go("init", func(p *sim.Proc) {
		r.l.Shoot(p, 0, targets, func(_ *sim.Proc, cpu mach.CPU, _ any) {
			ran[cpu] = true
		}, nil, false, nil, nil)
	})
	r.eng.Run()
	if len(ran) != 5 {
		t.Fatalf("handled on %d CPUs, want 5: %v", len(ran), ran)
	}
}
