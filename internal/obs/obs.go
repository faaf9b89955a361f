// Package obs is the simulator's one observation mechanism. A layer that
// exposes an observation point declares an exported Hook field carrying a
// typed event (tlb.TLB.Hit, pagetable.Table.Changed, kernel.Kernel.Trace,
// ...), emits into it after the state change the event describes, and
// observers — the sanitizer, its lockdep, the trace recorder, tests —
// subscribe with Add.
package obs

// Hook is a subscriber list for events of type E. The zero Hook has no
// subscribers, and emitting into it costs a length check.
//
// Subscribers run synchronously, in subscription order, after the state
// change the event describes has fully taken effect. They must be purely
// observational: they must not mutate the emitting layer or advance
// simulated time, so an observed run stays cycle-identical to an
// unobserved one. The ssa tier's observerpurity analyzer checks every
// function literal passed to Add.
type Hook[E any] struct {
	subs []func(E)
}

// Add subscribes fn for the rest of the hook's life.
func (h *Hook[E]) Add(fn func(E)) { h.subs = append(h.subs, fn) }

// Emit delivers e to every subscriber, in subscription order.
func (h *Hook[E]) Emit(e E) {
	for _, fn := range h.subs {
		fn(e)
	}
}
