package smp

import (
	"testing"

	"shootdown/internal/fault"
	"shootdown/internal/mach"
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// fullable is a Degradable test payload recording the escalation.
type fullable struct{ widened bool }

func (f *fullable) DegradeToFull() { f.widened = true }

// queueStranded queues one request on a masked target (the kick is never
// delivered) and returns it: the raw material of the recovery path.
func (r *rig) queueStranded(t *testing.T, target mach.CPU, payload any) *Request {
	t.Helper()
	r.bus.Controller(target).SetMasked(true)
	var req *Request
	r.eng.Go("strander", func(p *sim.Proc) {
		reqs := r.l.callMany(p, 0, mach.MaskOf(target), func(*sim.Proc, mach.CPU, any) {}, payload, false, nil)
		req = reqs[0]
	})
	r.eng.Run()
	if req == nil || req.Done() {
		t.Fatalf("stranded request missing or already acked")
	}
	return req
}

func TestRekickResendsOnlyUnacked(t *testing.T) {
	r := newRig(false)
	req := r.queueStranded(t, 2, nil)
	if req.Target() != 2 {
		t.Fatalf("Target() = %d, want 2", req.Target())
	}
	kicksBefore := r.l.Stats().Kicks
	// Unmask and rekick: the re-rung doorbell must deliver the stranded
	// request to a live responder.
	r.bus.Controller(2).SetMasked(false)
	r.spawnResponder(2, 1)
	r.eng.Go("recover", func(p *sim.Proc) {
		r.l.rekick(p, 0, []*Request{req})
	})
	r.eng.Run()
	if !req.Done() {
		t.Fatal("rekicked request never acknowledged")
	}
	s := r.l.Stats()
	if s.Rekicks != 1 {
		t.Fatalf("Rekicks = %d, want 1", s.Rekicks)
	}
	if s.Kicks != kicksBefore {
		t.Fatalf("Rekick counted as a fresh kick: %d -> %d", kicksBefore, s.Kicks)
	}
	// A rekick of fully acked requests is a no-op: no IPI, no counter.
	r.eng.Go("noop", func(p *sim.Proc) {
		r.l.rekick(p, 0, []*Request{req})
	})
	r.eng.Run()
	if got := r.l.Stats().Rekicks; got != 1 {
		t.Fatalf("no-op rekick bumped Rekicks to %d", got)
	}
}

func TestDegradeToFullWidensUnackedOnly(t *testing.T) {
	r := newRig(false)
	pay := &fullable{}
	req := r.queueStranded(t, 2, pay)
	// Non-degradable payloads are skipped without counting.
	r.l.degradeToFull([]*Request{{Payload: "opaque"}})
	if got := r.l.Stats().DegradedFulls; got != 0 {
		t.Fatalf("non-degradable payload counted an escalation: %d", got)
	}
	// One escalation event, however many requests it widens.
	r.l.degradeToFull([]*Request{req})
	if !pay.widened {
		t.Fatal("unacked Degradable payload was not widened")
	}
	if got := r.l.Stats().DegradedFulls; got != 1 {
		t.Fatalf("DegradedFulls = %d, want 1", got)
	}
	// Acked requests keep their precise payload.
	req.acked = true
	pay.widened = false
	r.l.degradeToFull([]*Request{req})
	if pay.widened {
		t.Fatal("acked request was degraded")
	}
	if got := r.l.Stats().DegradedFulls; got != 1 {
		t.Fatalf("degrading an acked request counted: %d", got)
	}
}

// TestAckTimedOutClimbsTheLadder drives the sync recovery step through
// six timeouts of one wait on a stranded and an acked request: the next
// deadline doubles up to the cap and stays there, the stranded payload
// degrades once, at timeout MaxKickRetries+1, and each step re-rings the
// stranded target's doorbell only.
func TestAckTimedOutClimbsTheLadder(t *testing.T) {
	r := newRig(false)
	stranded, acked := &fullable{}, &fullable{}
	reqs := []*Request{r.queueStranded(t, 2, stranded)}
	r.spawnResponder(4, 1)
	r.eng.Go("acked", func(p *sim.Proc) {
		r.l.Shoot(p, 0, mach.MaskOf(4), func(*sim.Proc, mach.CPU, any) {}, acked, false, nil, func(q []*Request) {
			reqs = append(reqs, q...)
		})
	})
	r.eng.Run()
	T := r.cost.IPIAckTimeout
	want := []uint64{2 * T, 4 * T, 8 * T, 8 * T, 8 * T, 8 * T}
	r.eng.Go("initiator", func(p *sim.Proc) {
		for i, next := range want {
			n := i + 1
			if got := r.l.AckTimedOut(p, 0, reqs, n); got != next {
				t.Errorf("timeout %d: next deadline %d, want %d", n, got, next)
			}
			degraded := n >= MaxKickRetries+1
			s := r.l.Stats()
			if s.AckTimeouts != uint64(n) || s.Rekicks != uint64(n) {
				t.Errorf("timeout %d: AckTimeouts %d, Rekicks %d; want %d each (one rekick, of the stranded target)",
					n, s.AckTimeouts, s.Rekicks, n)
			}
			if (s.DegradedFulls == 1) != degraded || s.DegradedFulls > 1 || stranded.widened != degraded {
				t.Errorf("timeout %d: DegradedFulls %d, stranded payload widened %v; want degraded=%v",
					n, s.DegradedFulls, stranded.widened, degraded)
			}
		}
	})
	r.eng.Run()
	if acked.widened {
		t.Error("the acked request's payload was degraded")
	}
	if r.bus.Controller(4).Pending() != 0 {
		t.Error("the acked target was rekicked")
	}
	r.l.NoteAckStall(700)
	r.l.NoteAckStall(300) // below the max: ignored
	if got := r.l.Stats().MaxAckStall; got != 700 {
		t.Fatalf("MaxAckStall = %d, want 700 (max, not sum)", got)
	}
}

// TestWatchdogDeadlinesFollowAckTimeout: the async watchdog backs off by
// the sync tier's function. With the target masked every kick is lost,
// and each rekick fires exactly AckTimeout(k) cycles after the k-th
// kick, never a cycle before: T, 2T, 4T, 8T, then 8T again.
func TestWatchdogDeadlinesFollowAckTimeout(t *testing.T) {
	r := newRig(false)
	r.recordApplier()
	r.l.SetFaultPlane(fault.New(7, fault.Spec{})) // armed, injects nothing
	r.bus.Controller(2).SetMasked(true)
	var b *AsyncBatch
	r.eng.Go("initiator", func(p *sim.Proc) {
		b = r.l.PostAsync(p, 0, mach.MaskOf(2),
			Inval{ASID: 1, Start: 0, End: 0x1000, Stride: 4096, GenLo: 1, GenHi: 1}, nil)
	})
	T := r.cost.IPIAckTimeout
	r.eng.RunUntil(sim.Time(T / 2)) // the post returns well before its deadline
	for k, wait := range []uint64{T, 2 * T, 4 * T, 8 * T, 8 * T, 8 * T} {
		if got := r.l.AckTimeout(k); got != wait {
			t.Fatalf("AckTimeout(%d) = %d, want %d", k, got, wait)
		}
		due := b.kickedAt + sim.Time(wait)
		r.eng.RunUntil(due - 1)
		if got := r.l.Stats().AckTimeouts; got != uint64(k) {
			t.Fatalf("kick %d: %d timeouts before its deadline %d, want %d", k, got, due, k)
		}
		r.eng.RunUntil(due + sim.Time(T/2))
		if got := r.l.Stats().AckTimeouts; got != uint64(k+1) {
			t.Fatalf("kick %d: %d timeouts by its deadline %d, want %d", k, got, due, k+1)
		}
		if b.kickedAt < due {
			t.Fatalf("kick %d: rekick at %d, before its deadline %d", k, b.kickedAt, due)
		}
	}
	r.eng.Shutdown()
}

func TestAckDelayFaultSlowsAck(t *testing.T) {
	ackAt := func(pl *fault.Plane) sim.Time {
		r := newRig(false)
		r.l.SetFaultPlane(pl)
		r.spawnResponder(2, 1)
		var at sim.Time
		r.eng.Go("init", func(p *sim.Proc) {
			r.l.Shoot(p, 0, mach.MaskOf(2), func(*sim.Proc, mach.CPU, any) {}, nil, false, nil, nil)
			at = p.Now()
		})
		r.eng.Run()
		return at
	}
	clean := ackAt(nil)
	slow := ackAt(fault.New(9, fault.Spec{AckDelayP: 1, AckDelayMax: 50_000}))
	if slow <= clean {
		t.Fatalf("ack-delay fault did not slow the ack: %d vs %d", slow, clean)
	}
}

func TestRaceDetectorEdgesOnRekick(t *testing.T) {
	// With the happens-before checker attached, the full
	// strand→rekick→handle→ack exchange must model clean sync edges.
	r := newRig(true)
	d := race.New(r.eng)
	r.l.SetRaceDetector(d)
	req := r.queueStranded(t, 2, nil)
	r.bus.Controller(2).SetMasked(false)
	r.spawnResponder(2, 1)
	r.eng.Go("recover", func(p *sim.Proc) {
		r.l.rekick(p, 0, []*Request{req})
		r.waitAcks(p, 0, []*Request{req})
	})
	r.eng.Run()
	if sum := d.Finish(); !sum.OK() {
		t.Fatalf("race model flagged the rekick protocol: %+v", sum.Races)
	}
}
