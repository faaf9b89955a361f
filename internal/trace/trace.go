// Package trace defines the protocol timeline: the typed events the kernel
// and the shootdown protocol emit through kernel.Kernel.Trace (an
// obs.Hook), and Recorder, the subscriber that timestamps them so a single
// shootdown can be rendered as an annotated timeline (cmd/shootdown-trace)
// and tests can assert on protocol event ordering.
package trace

import (
	"fmt"
	"io"
	"strings"

	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

// Kind classifies an event. The comment on each kind lists the Event
// fields its note renders.
type Kind string

// Event kinds emitted by the kernel and shootdown layers.
const (
	SyscallEnter  Kind = "syscall-enter"
	SyscallExit   Kind = "syscall-exit"
	ShootBegin    Kind = "shootdown-begin" // MM, Gen, Start, End, Full, Freed
	TargetPicked  Kind = "target"          // Peer
	TargetSkipped Kind = "target-skip"     // Peer, Text (why)
	IPISent       Kind = "ipi-send"        // Targets, Early; Fabric for an async post
	LocalFlush    Kind = "local-flush"     // Text
	IRQEnter      Kind = "irq-enter"       // Vector, Peer (sender), User
	RemoteFlush   Kind = "remote-flush"    // MM, Gen, Fabric; or Text alone
	Ack           Kind = "ack"             // Early
	IRQExit       Kind = "irq-exit"
	ShootEnd      Kind = "shootdown-end"       // Text
	DeferredFlush Kind = "deferred-user-flush" // Start, End; or Full alone
	CoWEvent      Kind = "cow"                 // Start (the page), Trick, Exec
)

// Event is one protocol occurrence. Emitters set CPU, Kind and the
// operands their kind renders; a Recorder stamps At on receipt.
type Event struct {
	At   sim.Time
	CPU  mach.CPU
	Kind Kind

	MM, Gen    uint64 // address-space ID and TLB generation
	Start, End uint64 // virtual range
	Targets    mach.CPUMask
	Peer       mach.CPU // the CPU the event concerns, or the IPI sender
	Vector     uint8
	// Flags: a full flush, one that frees page tables, an early ack, an
	// interrupt taken in user mode, the async fabric tier, and a CoW
	// fault handled by the write trick, on an executable page.
	Full, Freed, Early, User, Fabric, Trick, Exec bool

	Text string // an operand-free variant's wording
}

// Note renders the event's annotation, as the timeline prints it.
func (e Event) Note() string {
	switch e.Kind {
	case ShootBegin:
		return fmt.Sprintf("mm %d gen %d range [%#x,%#x) full=%v freed=%v",
			e.MM, e.Gen, e.Start, e.End, e.Full, e.Freed)
	case TargetPicked:
		return fmt.Sprintf("cpu%d", e.Peer)
	case TargetSkipped:
		return fmt.Sprintf("cpu%d %s", e.Peer, e.Text)
	case IPISent:
		if e.Fabric {
			return fmt.Sprintf("async post to %v", e.Targets)
		}
		return fmt.Sprintf("targets %v (early-ack=%v)", e.Targets, e.Early)
	case IRQEnter:
		return fmt.Sprintf("vector %#x from cpu%d (user=%v)", e.Vector, e.Peer, e.User)
	case RemoteFlush:
		switch {
		case e.Text != "":
			return e.Text
		case e.Fabric:
			return fmt.Sprintf("fabric mm %d through gen %d", e.MM, e.Gen)
		}
		return fmt.Sprintf("mm %d through gen %d", e.MM, e.Gen)
	case Ack:
		return fmt.Sprintf("early=%v", e.Early)
	case DeferredFlush:
		if e.Full {
			return "full user-PCID flush on CR3 reload"
		}
		return fmt.Sprintf("INVLPG range [%#x,%#x)", e.Start, e.End)
	case CoWEvent:
		return fmt.Sprintf("va %#x trick=%v exec=%v", e.Start, e.Trick, e.Exec)
	}
	return e.Text
}

// Recorder accumulates the events it observes; subscribe its Observe
// method to a trace hook (kernel.Kernel.EnableTrace does). The read
// methods are nil-safe.
type Recorder struct {
	events []Event
	eng    *sim.Engine
}

// New returns a recorder reading timestamps from eng.
func New(eng *sim.Engine) *Recorder { return &Recorder{eng: eng} }

// Observe records e, stamped with the current simulated time. It copies
// the target mask, so the emitter keeps ownership of its own; only the
// recorded copy is written.
func (r *Recorder) Observe(e Event) {
	r.events = append(r.events, e)
	rec := &r.events[len(r.events)-1]
	rec.At = r.eng.Now()
	rec.Targets = rec.Targets.Clone()
}

// Events returns the recorded events in order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Reset clears the recording.
func (r *Recorder) Reset() {
	if r != nil {
		r.events = r.events[:0]
	}
}

// Filter returns the events of the given kinds.
func (r *Recorder) Filter(kinds ...Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		for _, k := range kinds {
			if e.Kind == k {
				out = append(out, e)
				break
			}
		}
	}
	return out
}

// Write renders the timeline, with per-event deltas from the first event.
func (r *Recorder) Write(w io.Writer) {
	evs := r.Events()
	if len(evs) == 0 {
		fmt.Fprintln(w, "(no events)")
		return
	}
	t0 := evs[0].At
	for _, e := range evs {
		fmt.Fprintf(w, "%8d  +%-7d cpu%-3d %-20s %s\n",
			e.At, e.At-t0, e.CPU, e.Kind, e.Note())
	}
}

// String renders the timeline.
func (r *Recorder) String() string {
	var sb strings.Builder
	r.Write(&sb)
	return sb.String()
}
