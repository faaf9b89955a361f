// Fixture: one lock-class pair per lockorder rule, each closing (or, for
// the TryDown and deferred-release rules, not closing) an AB/BA cycle.
// TestLockOrderRules pins every cycle by line and message.
package lockrules

import (
	"shootdown/internal/mm"
	"shootdown/internal/sim"
)

// A TryDown condition acquires only on its success edge: the failure path
// takes b with a not held, so tryEdge and tryBA form no cycle.
type tryLocks struct{ a, b *mm.RWSem }

func (t *tryLocks) tryEdge(p *sim.Proc) {
	if !t.a.TryDownRead() {
		t.b.DownRead(p)
		t.b.UpRead(p)
		return
	}
	t.a.UpRead(p)
}

func (t *tryLocks) tryBA(p *sim.Proc) {
	t.b.DownRead(p)
	t.a.DownRead(p)
	t.a.UpRead(p)
	t.b.UpRead(p)
}

// A deferred UpWrite keeps a held across heldAcross's body (a -> b, a
// cycle with ba) and releases it at exit, so deferCaller takes c with
// nothing held and ca closes no cycle.
type deferLocks struct{ a, b, c *mm.RWSem }

func (t *deferLocks) heldAcross(p *sim.Proc) {
	t.a.DownWrite(p)
	defer t.a.UpWrite(p)
	t.b.DownWrite(p)
	t.b.UpWrite(p)
}

func (t *deferLocks) deferCaller(p *sim.Proc) {
	t.heldAcross(p)
	t.c.DownWrite(p)
	t.c.UpWrite(p)
}

func (t *deferLocks) ba(p *sim.Proc) {
	t.b.DownWrite(p)
	t.a.DownWrite(p)
	t.a.UpWrite(p)
	t.b.UpWrite(p)
}

func (t *deferLocks) ca(p *sim.Proc) {
	t.c.DownWrite(p)
	t.a.DownWrite(p)
	t.a.UpWrite(p)
	t.c.UpWrite(p)
}

// A call through an interface resolves to every implementation: viaIface
// holds y while ifaceImpl.lock takes x.
type locker interface{ lock(p *sim.Proc) }

type ifaceLocks struct{ x, y *mm.RWSem }

type ifaceImpl struct{ l *ifaceLocks }

func (i *ifaceImpl) lock(p *sim.Proc) {
	i.l.x.DownRead(p)
	i.l.x.UpRead(p)
}

func (t *ifaceLocks) viaIface(p *sim.Proc, lk locker) {
	t.y.DownRead(p)
	lk.lock(p)
	t.y.UpRead(p)
}

func (t *ifaceLocks) xThenY(p *sim.Proc) {
	t.x.DownRead(p)
	t.y.DownRead(p)
	t.y.UpRead(p)
	t.x.UpRead(p)
}

// A lock passed as a parameter is resolved at each call site: paramCaller
// instantiates holdMThen's m -> s as m -> n.
type paramLocks struct{ m, n *mm.RWSem }

func (t *paramLocks) holdMThen(p *sim.Proc, s *mm.RWSem) {
	t.m.DownWrite(p)
	s.DownWrite(p)
	s.UpWrite(p)
	t.m.UpWrite(p)
}

func (t *paramLocks) paramCaller(p *sim.Proc) {
	t.holdMThen(p, t.n)
}

func (t *paramLocks) nThenM(p *sim.Proc) {
	t.n.DownWrite(p)
	t.m.DownWrite(p)
	t.m.UpWrite(p)
	t.n.UpWrite(p)
}

// A lock reached through an accessor is classed by the accessor.
type accLocks struct{ u, v *mm.RWSem }

func (t *accLocks) U() *mm.RWSem { return t.u }

func (t *accLocks) uThenV(p *sim.Proc) {
	t.U().DownRead(p)
	t.v.DownRead(p)
	t.v.UpRead(p)
	t.U().UpRead(p)
}

func (t *accLocks) vThenU(p *sim.Proc) {
	t.v.DownRead(p)
	t.U().DownRead(p)
	t.U().UpRead(p)
	t.v.UpRead(p)
}

// A literal takes its locks when it runs, as its own unit: install holds
// nothing, but the literal's q -> r closes a cycle with rThenQ.
type litLocks struct{ q, r *mm.RWSem }

func (t *litLocks) install(p *sim.Proc) func() {
	return func() {
		t.q.DownRead(p)
		t.r.DownRead(p)
		t.r.UpRead(p)
		t.q.UpRead(p)
	}
}

func (t *litLocks) rThenQ(p *sim.Proc) {
	t.r.DownRead(p)
	t.q.DownRead(p)
	t.q.UpRead(p)
	t.r.UpRead(p)
}
