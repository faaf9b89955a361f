// Fixture: one hook per observerpurity rule. TestObserverPurityRules pins
// every finding by line and message; the boot hook that only calls a
// mutating method and the hook that only rebinds its locals are clean.
package purityrules

import "shootdown/internal/obs"

type state struct{ n int }

func (s *state) bump() { s.n++ }

// counter is implemented by *state, whose bump writes its receiver.
type counter interface{ bump() }

var hits int

func SetBootHook(fn func(s *state)) {}

func install(h *obs.Hook[*state], ch *obs.Hook[counter]) {
	h.Add(func(s *state) {
		alias := s
		alias.n = 1
	})
	ch.Add(func(c counter) {
		c.bump()
	})
	h.Add(func(s *state) {
		hits++
	})
	SetBootHook(func(s *state) {
		s.bump()
	})
	SetBootHook(func(s *state) {
		s.n = 2
	})
	// Rebinding the parameter or bumping a local copy of observed state
	// changes only the hook's own variables: clean.
	h.Add(func(s *state) {
		n := s.n
		n++
		s = nil
		_ = n
	})
}

// event reaches its hooks by value.
type event struct {
	at   int
	seen []int
}

// A by-value parameter is the hook's own copy: writing its field is clean,
// while writing an element of its slice field writes the caller's array.
func installByValue(h *obs.Hook[event]) {
	h.Add(func(e event) {
		e.at = 1
	})
	h.Add(func(e event) {
		e.seen[0] = 1
	})
}

// tally's set writes only its own copy, a field of it included; link's set
// writes through the pointer its copy holds.
type tally struct {
	n  int
	st state
}

func (t tally) set() {
	t.n = 1
	t.st.bump()
}

type link struct{ to *state }

func (l link) set() { l.to.n = 1 }

type pair struct {
	t tally
	l link
}

// A value receiver is the method's own copy: calling a method that writes
// only the copy is clean, and so is a pointer method on a field of the
// hook's own by-value copy; a method that writes through a pointer its copy
// holds mutates observed state.
func installValueReceivers(h *obs.Hook[*pair], hv *obs.Hook[pair]) {
	h.Add(func(p *pair) {
		p.t.set()
	})
	h.Add(func(p *pair) {
		p.l.set()
	})
	hv.Add(func(p pair) {
		p.t.st.bump()
	})
}

// viaIface mutates through an interface-typed field: poke's summary
// resolves c.bump to every implementation, *state's among them.
type viaIface struct{ c counter }

func (v *viaIface) poke() { v.c.bump() }

func installViaIface(h *obs.Hook[*viaIface]) {
	h.Add(func(v *viaIface) {
		v.poke()
	})
}
