// Fixture: hooks that mutate observed or package-level state. The
// observerpurity analyzer must report exactly four findings: two writes
// through a hook parameter, one package-level write, and one write in a
// boot hook.
package purityfix

import "shootdown/internal/obs"

type world struct {
	Cycles uint64
}

// kernelT mimics a layer exposing observation points.
type kernelT struct {
	ASCreated            obs.Hook[*world]
	ShootBegin, ShootEnd obs.Hook[*world]
}

var globalCount int

func SetBootHook(fn func(w *world)) {}

func install(k *kernelT) {
	seen := 0
	k.ASCreated.Add(func(w *world) {
		w.Cycles = 0  // BAD: mutates observed state through the parameter
		globalCount++ // BAD: mutates a package-level variable
		seen++        // ok: captured local accumulator is the sanctioned pattern
	})
	k.ShootBegin.Add(func(w *world) {
		w.Cycles++ // BAD: mutates observed state
	})
	k.ShootEnd.Add(func(w *world) {
		local := 0
		local++ // ok: hook-local state
		_ = local
	})
	_ = seen
	SetBootHook(func(w *world) {
		w.Cycles = 7 // BAD: mutates observed state
	})
}
