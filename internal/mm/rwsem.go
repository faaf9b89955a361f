package mm

import (
	"shootdown/internal/obs"
	"shootdown/internal/race"
	"shootdown/internal/sim"
)

// RWSem is a reader-writer semaphore for simulated processes, modeling
// mm->mmap_sem. Acquisition order is not strictly FIFO, but writers cannot
// be starved indefinitely in the closed workloads this repository runs:
// waiters recheck on every release broadcast, deterministically ordered by
// the engine. A kernel waiter (kernel.CPU.DownRead/DownWrite) polls
// through sim.Cond.WaitPoll, so its recheck runs in the engine's wake
// callback, which resumes the waiter only when it can take the semaphore
// or has interrupts or lazy work to service.
type RWSem struct {
	eng     *sim.Engine
	name    string
	readers int
	writer  bool
	changed *sim.Cond

	// Contended counts acquisitions that had to wait (for reports).
	Contended uint64

	// Acquired fires after every successful acquisition (the Try variants
	// included), Released after every release; lock-order checkers
	// subscribe to both.
	Acquired, Released obs.Hook[*RWSem]

	// rt, when non-nil, receives acquire/release happens-before edges on
	// the registry sync raceName.
	rt       *race.Detector
	raceName string
}

// EnableRace attaches the happens-before checker: every acquisition joins
// the clocks of past releases, every release publishes the holder's clock.
// Read-side releases join (rather than overwrite) the semaphore's clock,
// so concurrent readers all stay ordered before the next writer.
func (s *RWSem) EnableRace(d *race.Detector) {
	s.rt = d
	s.raceName = "sem:" + s.name
}

func (s *RWSem) acquired() {
	s.rt.AcquireName(s.raceName)
	s.Acquired.Emit(s)
}

func (s *RWSem) released() {
	s.rt.ReleaseName(s.raceName)
	s.Released.Emit(s)
}

// NewRWSem returns an unlocked semaphore.
func NewRWSem(eng *sim.Engine, name string) *RWSem {
	return &RWSem{eng: eng, name: name, changed: eng.NewCond()}
}

// Name returns the diagnostic name.
func (s *RWSem) Name() string { return s.name }

// CanDownRead reports whether TryDownRead would succeed now. It records
// nothing: no hook fires and no race edge is drawn.
func (s *RWSem) CanDownRead() bool { return !s.writer }

// CanDownWrite reports whether TryDownWrite would succeed now. Like
// CanDownRead it records nothing.
func (s *RWSem) CanDownWrite() bool { return !s.writer && s.readers == 0 }

// TryDownRead acquires for reading without blocking; it reports success.
func (s *RWSem) TryDownRead() bool {
	if !s.CanDownRead() {
		return false
	}
	s.readers++
	s.acquired()
	return true
}

// TryDownWrite acquires exclusively without blocking; it reports success.
func (s *RWSem) TryDownWrite() bool {
	if !s.CanDownWrite() {
		return false
	}
	s.writer = true
	s.acquired()
	return true
}

// Changed returns the cond broadcast on every release, so callers can
// build interruptible waits (the kernel layer waits on it while still
// servicing IPIs, as a task sleeping in down_read does).
func (s *RWSem) Changed() *sim.Cond { return s.changed }

// NoteContention bumps the contention counter (used by Try-based waiters).
func (s *RWSem) NoteContention() { s.Contended++ }

// DownRead acquires the semaphore for reading, blocking while a writer
// holds it.
func (s *RWSem) DownRead(p *sim.Proc) {
	for s.writer {
		s.Contended++
		s.changed.Wait(p)
	}
	s.readers++
	s.acquired()
}

// UpRead releases a read acquisition.
func (s *RWSem) UpRead(p *sim.Proc) {
	if s.readers <= 0 {
		panic("mm: UpRead without DownRead on " + s.name)
	}
	s.readers--
	if s.readers == 0 {
		s.changed.Broadcast()
	}
	s.released()
}

// DownWrite acquires the semaphore exclusively.
func (s *RWSem) DownWrite(p *sim.Proc) {
	for s.writer || s.readers > 0 {
		s.Contended++
		s.changed.Wait(p)
	}
	s.writer = true
	s.acquired()
}

// UpWrite releases an exclusive acquisition.
func (s *RWSem) UpWrite(p *sim.Proc) {
	if !s.writer {
		panic("mm: UpWrite without DownWrite on " + s.name)
	}
	s.writer = false
	s.changed.Broadcast()
	s.released()
}

// HeldForWrite reports whether a writer currently holds the semaphore.
func (s *RWSem) HeldForWrite() bool { return s.writer }

// Readers returns the current reader count.
func (s *RWSem) Readers() int { return s.readers }
