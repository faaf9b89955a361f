// Fixture: an observer subscribed as a method value, not a literal. Its
// receiver is the observer's own state, so the counter bump is legal;
// its parameter is the observed CPU, so the write through it is the one
// finding.
package purevaluefix

import "shootdown/internal/kernel"

type watcher struct{ returns int }

func (w *watcher) onUserReturn(c *kernel.CPU) {
	w.returns++
	c.Interrupted = 0
}

func attach(k *kernel.Kernel) {
	w := &watcher{}
	k.UserReturn.Add(w.onUserReturn)
}
