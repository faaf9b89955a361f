// Fixture: cross-world mutable state in a simulated package. The
// parallelsafe analyzer must report exactly four findings, one per
// undisciplined store in touch, and record one suppression for the
// marker-waived hook.
package parallelfix

import (
	"errors"
	"fmt"
)

// flushCount is cross-world mutable state: two concurrently booted
// machines would increment the same counter.
var flushCount int

var lastWorld, bootSeq = "", 0

// ErrBadFlush is an immutable error sentinel: allowed.
var ErrBadFlush = errors.New("fixture: bad flush")

var (
	// ErrStale and ErrWrapped are sentinels too, even grouped.
	ErrStale   = errors.New("fixture: stale entry")
	ErrWrapped = fmt.Errorf("fixture: wrapped %d", 7)
)

// hook is set once before any world boots and only read afterwards.
// parallel-safe: written only while the scheduler pool is idle.
var hook func()

var (
	// tick is mutable even though it hides in a group with a sentinel.
	tick    uint64
	ErrTick = errors.New("fixture: tick")
)

// faultSpec is written only through a restore-disciplined setter: allowed.
var faultSpec string

func setFaultSpec(s string) func() {
	prev := faultSpec
	faultSpec = s
	return func() { faultSpec = prev }
}

func setHook(fn func()) {
	hook = fn
}

func touch() {
	flushCount++
	bootSeq++
	lastWorld = "w"
	tick++
	if hook != nil {
		hook()
	}
	_ = errors.Is(ErrStale, ErrBadFlush)
	_ = ErrWrapped
	_ = ErrTick
	_ = faultSpec
}
