// Fixture: an AB/BA inversion whose acquisitions sit in blocks the
// dataflow first reaches with nothing held — an if body and a loop body.
// The lockorder analyzer must still run those blocks and report exactly
// one cycle.
package lockbranch

import (
	"shootdown/internal/mm"
	"shootdown/internal/sim"
)

type pair struct{ a, b *mm.RWSem }

func (t *pair) abWhen(p *sim.Proc, now bool) {
	if now {
		t.a.DownWrite(p)
		t.b.DownWrite(p)
		t.b.UpWrite(p)
		t.a.UpWrite(p)
	}
}

func (t *pair) baEach(p *sim.Proc, n int) {
	for i := 0; i < n; i++ {
		t.b.DownRead(p)
		t.a.DownRead(p)
		t.a.UpRead(p)
		t.b.UpRead(p)
	}
}
