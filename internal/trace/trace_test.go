package trace

import (
	"strings"
	"testing"

	"shootdown/internal/mach"
	"shootdown/internal/obs"
	"shootdown/internal/sim"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Events() != nil {
		t.Fatal("nil recorder has events")
	}
	r.Reset()
	if len(r.Filter(Ack)) != 0 || !strings.Contains(r.String(), "no events") {
		t.Fatal("nil recorder renders events")
	}
}

func TestRecordAndRender(t *testing.T) {
	eng := sim.NewEngine(1)
	r := New(eng)
	var h obs.Hook[Event]
	h.Add(r.Observe)
	eng.Go("p", func(p *sim.Proc) {
		h.Emit(Event{CPU: 0, Kind: ShootBegin, MM: 1, Gen: 5, Start: 0x1000, End: 0x2000})
		p.Delay(100)
		h.Emit(Event{CPU: 3, Kind: Ack, Early: true})
	})
	eng.Run()
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != ShootBegin || evs[0].Note() != "mm 1 gen 5 range [0x1000,0x2000) full=false freed=false" {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].At-evs[0].At != 100 {
		t.Fatalf("delta = %d", evs[1].At-evs[0].At)
	}
	out := r.String()
	if !strings.Contains(out, "shootdown-begin") || !strings.Contains(out, "cpu3") {
		t.Fatalf("render = %q", out)
	}
	if !strings.Contains(out, "+100") || !strings.Contains(out, "early=true") {
		t.Fatalf("missing delta or note: %q", out)
	}
}

// TestNotesMatchTimelineText pins every kind's note, one row per wording
// variant, to the exact text the timeline has always printed for it.
func TestNotesMatchTimelineText(t *testing.T) {
	var targets mach.CPUMask
	for _, c := range []mach.CPU{28, 300, 301} {
		targets.Set(c)
	}
	const va, end = 0x10000000, 0x10003000
	for _, tc := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: SyscallEnter}, ""},
		{Event{Kind: SyscallExit}, ""},
		{Event{Kind: IRQExit}, ""},
		{Event{Kind: ShootBegin, MM: 1000, Gen: 5000, Start: va, End: end, Full: true},
			"mm 1000 gen 5000 range [0x10000000,0x10003000) full=true freed=false"},
		{Event{Kind: TargetPicked, Peer: 300}, "cpu300"},
		{Event{Kind: TargetSkipped, Peer: 300, Text: "lazy"}, "cpu300 lazy"},
		{Event{Kind: TargetSkipped, Peer: 300, Text: "in batched syscall"}, "cpu300 in batched syscall"},
		{Event{Kind: IPISent, Targets: targets, Early: true}, "targets {28,300,301} (early-ack=true)"},
		{Event{Kind: IPISent, Targets: targets, Fabric: true}, "async post to {28,300,301}"},
		{Event{Kind: LocalFlush, Text: "done (overlapped with IPIs)"}, "done (overlapped with IPIs)"},
		{Event{Kind: LocalFlush, Text: "done (before IPIs)"}, "done (before IPIs)"},
		{Event{Kind: LocalFlush, Text: "done (fabric in flight)"}, "done (fabric in flight)"},
		{Event{Kind: IRQEnter, Vector: 0xfb, Peer: 300, User: true}, "vector 0xfb from cpu300 (user=true)"},
		{Event{Kind: RemoteFlush, MM: 1000, Gen: 5000}, "mm 1000 through gen 5000"},
		{Event{Kind: RemoteFlush, MM: 1000, Gen: 5000, Fabric: true}, "fabric mm 1000 through gen 5000"},
		{Event{Kind: RemoteFlush, Text: "skipped: mm not loaded"}, "skipped: mm not loaded"},
		{Event{Kind: RemoteFlush, Text: "fabric skip: mm not loaded"}, "fabric skip: mm not loaded"},
		{Event{Kind: RemoteFlush, Text: "fabric flush_all"}, "fabric flush_all"},
		{Event{Kind: Ack, Early: true}, "early=true"},
		{Event{Kind: ShootEnd, Text: "all acks received"}, "all acks received"},
		{Event{Kind: ShootEnd, Text: "async batch acked"}, "async batch acked"},
		{Event{Kind: DeferredFlush, Start: va, End: end}, "INVLPG range [0x10000000,0x10003000)"},
		{Event{Kind: DeferredFlush, Full: true}, "full user-PCID flush on CR3 reload"},
		{Event{Kind: CoWEvent, Start: 0x7f0000001000, Trick: true}, "va 0x7f0000001000 trick=true exec=false"},
	} {
		if got := tc.ev.Note(); got != tc.want {
			t.Errorf("%s note = %q, want %q", tc.ev.Kind, got, tc.want)
		}
	}
}

// TestRecorderSnapshotsTargets: the recorder keeps the mask as it was at
// emission, even if the emitter later reuses its own.
func TestRecorderSnapshotsTargets(t *testing.T) {
	r := New(sim.NewEngine(1))
	var targets mach.CPUMask
	targets.Set(2)
	r.Observe(Event{Kind: IPISent, Targets: targets})
	targets.Set(3)
	if got := r.Events()[0].Note(); got != "targets {2} (early-ack=false)" {
		t.Fatalf("note = %q", got)
	}
}

// TestEmitWithoutSubscriberAllocatesNothing: an unobserved trace event
// costs no allocation, even with a multi-CPU mask and operands too large
// for the runtime's preallocated small-integer boxes.
func TestEmitWithoutSubscriberAllocatesNothing(t *testing.T) {
	var h obs.Hook[Event]
	var targets mach.CPUMask
	for _, c := range []mach.CPU{300, 700, 1000} {
		targets.Set(c)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.Emit(Event{CPU: 300, Kind: ShootBegin, MM: 1000, Gen: 5000,
			Start: 0x10000000, End: 0x10003000, Full: true})
		h.Emit(Event{CPU: 300, Kind: IPISent, Targets: targets, Early: true})
	}); n != 0 {
		t.Fatalf("emitting without a subscriber allocated %v times", n)
	}
}

func TestFilter(t *testing.T) {
	r := New(sim.NewEngine(1))
	r.Observe(Event{CPU: 0, Kind: ShootBegin})
	r.Observe(Event{CPU: 1, Kind: Ack})
	r.Observe(Event{CPU: 2, Kind: Ack})
	r.Observe(Event{CPU: 0, Kind: ShootEnd})
	if got := len(r.Filter(Ack)); got != 2 {
		t.Fatalf("acks = %d", got)
	}
	if got := len(r.Filter(ShootBegin, ShootEnd)); got != 2 {
		t.Fatalf("begin/end = %d", got)
	}
}

func TestResetAndEmptyRender(t *testing.T) {
	r := New(sim.NewEngine(1))
	r.Observe(Event{CPU: 0, Kind: ShootBegin})
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("reset failed")
	}
	if !strings.Contains(r.String(), "no events") {
		t.Fatal("empty render wrong")
	}
}
