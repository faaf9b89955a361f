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
		reqs := r.l.CallMany(p, 0, mach.MaskOf(target), func(*sim.Proc, mach.CPU, any) {}, payload, false, nil)
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
		r.l.Rekick(p, 0, []*Request{req})
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
		r.l.Rekick(p, 0, []*Request{req})
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
	r.l.DegradeToFull([]*Request{{Payload: "opaque"}})
	if got := r.l.Stats().DegradedFulls; got != 0 {
		t.Fatalf("non-degradable payload counted an escalation: %d", got)
	}
	// One escalation event, however many requests it widens.
	r.l.DegradeToFull([]*Request{req})
	if !pay.widened {
		t.Fatal("unacked Degradable payload was not widened")
	}
	if got := r.l.Stats().DegradedFulls; got != 1 {
		t.Fatalf("DegradedFulls = %d, want 1", got)
	}
	// Acked requests keep their precise payload.
	req.acked = true
	pay.widened = false
	r.l.DegradeToFull([]*Request{req})
	if pay.widened {
		t.Fatal("acked request was degraded")
	}
	if got := r.l.Stats().DegradedFulls; got != 1 {
		t.Fatalf("degrading an acked request counted: %d", got)
	}
}

func TestRecoveryCounters(t *testing.T) {
	r := newRig(false)
	r.l.NoteAckTimeout()
	r.l.NoteAckTimeout()
	r.l.NoteAckStall(700)
	r.l.NoteAckStall(300) // below the max: ignored
	s := r.l.Stats()
	if s.AckTimeouts != 2 {
		t.Fatalf("AckTimeouts = %d, want 2", s.AckTimeouts)
	}
	if s.MaxAckStall != 700 {
		t.Fatalf("MaxAckStall = %d, want 700 (max, not sum)", s.MaxAckStall)
	}
}

func TestAckDelayFaultSlowsAck(t *testing.T) {
	ackAt := func(pl *fault.Plane) sim.Time {
		r := newRig(false)
		r.l.SetFaultPlane(pl)
		r.spawnResponder(2, 1)
		var at sim.Time
		r.eng.Go("init", func(p *sim.Proc) {
			reqs := r.l.CallMany(p, 0, mach.MaskOf(2), func(*sim.Proc, mach.CPU, any) {}, nil, false, nil)
			r.waitAcks(p, reqs)
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
	if !r.l.Consolidated() {
		t.Fatal("Consolidated() lost the layout flag")
	}
	d := race.New(r.eng)
	r.l.SetRaceDetector(d)
	req := r.queueStranded(t, 2, nil)
	r.bus.Controller(2).SetMasked(false)
	r.spawnResponder(2, 1)
	r.eng.Go("recover", func(p *sim.Proc) {
		r.l.Rekick(p, 0, []*Request{req})
		r.waitAcks(p, []*Request{req})
	})
	r.eng.Run()
	if sum := d.Finish(); !sum.OK() {
		t.Fatalf("race model flagged the rekick protocol: %+v", sum.Races)
	}
}
