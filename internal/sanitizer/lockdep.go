package sanitizer

import (
	"fmt"
	"strings"

	"shootdown/internal/mm"
	"shootdown/internal/sim"
)

// lockdep is a minimal lock-order checker over the simulation's rwsems
// (mmap_sem instances and the SerializedIPIs smp_ipi_mtx). It records the
// per-process stack of held semaphores and builds a directed
// acquired-while-holding graph over lock *names*; a new edge that closes a
// cycle is a lock-order inversion.
//
// The graph is keyed by name rather than instance so that the classic mm
// deadlock shape — thread A takes mmap_sem[1] then mmap_sem[2] while
// thread B takes them in the opposite order — is reported even though the
// two edges involve four distinct (instance, instance) pairs. Same-name
// self-edges are ignored: concurrent readers of one rwsem are fine, and
// the simulator's cooperative scheduler cannot express a same-instance
// writer deadlock without hanging outright.
type lockdep struct {
	c        *Checker
	held     map[*sim.Proc][]*mm.RWSem
	adj      map[string][]string // acquisition-order edges, append order = discovery order
	edgeSeen map[[2]string]bool
	reported map[[2]string]bool
}

func newLockdep(c *Checker) *lockdep {
	return &lockdep{
		c:        c,
		held:     make(map[*sim.Proc][]*mm.RWSem),
		adj:      make(map[string][]string),
		edgeSeen: make(map[[2]string]bool),
		reported: make(map[[2]string]bool),
	}
}

// watch subscribes the checker to s's acquisitions and releases.
func (ld *lockdep) watch(s *mm.RWSem) {
	s.Acquired.Add(ld.acquired)
	s.Released.Add(ld.released)
}

func (ld *lockdep) acquired(s *mm.RWSem) {
	p := ld.c.K.Eng.Current()
	if p == nil {
		return
	}
	held := ld.held[p]
	for _, h := range held {
		if h.Name() == s.Name() {
			continue
		}
		e := [2]string{h.Name(), s.Name()}
		if !ld.edgeSeen[e] {
			ld.edgeSeen[e] = true
			ld.adj[e[0]] = append(ld.adj[e[0]], e[1])
		}
		if ld.reported[e] {
			continue
		}
		// Adding h->s closed a cycle iff s already reaches h.
		if path := ld.path(s.Name(), h.Name()); path != nil {
			ld.reported[e] = true
			chain := append(path, s.Name())
			ld.c.addViolation("lock-order", ld.c.currentCPU(),
				fmt.Sprintf("lock-order inversion: %q acquired while holding %q, but the opposite order %s was already observed — two threads interleaving these orders deadlock",
					s.Name(), h.Name(), strings.Join(chain, " -> ")))
		}
	}
	ld.held[p] = append(held, s)
}

func (ld *lockdep) released(s *mm.RWSem) {
	p := ld.c.K.Eng.Current()
	if p == nil {
		return
	}
	held := ld.held[p]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == s {
			ld.held[p] = append(held[:i], held[i+1:]...)
			return
		}
	}
}

// path returns a lock chain from -> ... -> to over recorded edges, or nil.
// Adjacency lists are slices in discovery order, so the search (and any
// reported chain) is deterministic.
func (ld *lockdep) path(from, to string) []string {
	if from == to {
		return []string{from}
	}
	visited := map[string]bool{from: true}
	var dfs func(n string, trail []string) []string
	dfs = func(n string, trail []string) []string {
		for _, next := range ld.adj[n] {
			if next == to {
				return append(trail, n, to)
			}
			if visited[next] {
				continue
			}
			visited[next] = true
			if p := dfs(next, append(trail, n)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(from, nil)
}
