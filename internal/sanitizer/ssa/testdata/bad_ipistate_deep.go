// Fixture: requests kicked through a 21-deep CallMany wrapper chain,
// callers declared before callees, so each round of the ipistate wrapper
// fixpoint classifies one more level. The fixpoint must run until nothing
// changes and report the leak in leaky; a fixpoint stopped after 20
// rounds reports nothing.
package ipideep

import (
	"shootdown/internal/mach"
	"shootdown/internal/sim"
	"shootdown/internal/smp"
)

func leaky(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) {
	reqs := r1(l, p, from, targets, fn)
	_ = reqs
}

func r1(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r2(l, p, from, targets, fn)
}

func r2(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r3(l, p, from, targets, fn)
}

func r3(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r4(l, p, from, targets, fn)
}

func r4(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r5(l, p, from, targets, fn)
}

func r5(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r6(l, p, from, targets, fn)
}

func r6(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r7(l, p, from, targets, fn)
}

func r7(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r8(l, p, from, targets, fn)
}

func r8(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r9(l, p, from, targets, fn)
}

func r9(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r10(l, p, from, targets, fn)
}

func r10(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r11(l, p, from, targets, fn)
}

func r11(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r12(l, p, from, targets, fn)
}

func r12(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r13(l, p, from, targets, fn)
}

func r13(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r14(l, p, from, targets, fn)
}

func r14(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r15(l, p, from, targets, fn)
}

func r15(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r16(l, p, from, targets, fn)
}

func r16(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r17(l, p, from, targets, fn)
}

func r17(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r18(l, p, from, targets, fn)
}

func r18(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r19(l, p, from, targets, fn)
}

func r19(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r20(l, p, from, targets, fn)
}

func r20(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return r21(l, p, from, targets, fn)
}

func r21(l *smp.Layer, p *sim.Proc, from mach.CPU, targets mach.CPUMask, fn smp.HandlerFunc) []*smp.Request {
	return l.CallMany(p, from, targets, fn, nil, false, nil)
}
