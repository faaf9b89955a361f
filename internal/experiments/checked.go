package experiments

import (
	"fmt"
	"sync"

	"shootdown/internal/race"
	"shootdown/internal/report"
	"shootdown/internal/sanitizer"
	"shootdown/internal/workload"
)

// AttachOracles attaches both dynamic oracles to w before its engine
// runs: the shadow-TLB coherence sanitizer (internal/sanitizer) and the
// happens-before race model (internal/race). Both are purely
// observational, and the sanitizer reads nothing through the race
// model's instrumentation, so each reports exactly what it would alone.
//
// The lazy-shootdown extension (core.Config.LazyRemote) is granted its
// designed staleness window: hits on CPUs with queued lazy work are legal
// for that machine (see sanitizer.Config.AllowLazyWindow).
func AttachOracles(w *workload.World) (*sanitizer.Checker, *race.Detector) {
	d := race.New(w.Eng)
	w.K.EnableRace(d)
	// The flusher was built before the detector; re-wire its own sync
	// objects (the SerializedIPIs mutex) to it.
	w.F.EnableRace()
	return sanitizer.Attach(w.K, w.F, sanitizer.Config{AllowLazyWindow: w.F.Cfg.LazyRemote}), d
}

// RunChecked executes the named experiment from the registry with both
// oracles attached to every machine it boots, returning the tables and
// the two merged summaries. The oracles charge no simulated time, so the
// tables are identical to an unchecked run, and the summaries' counters
// are order-independent sums, identical at any worker count.
func RunChecked(name string, o Options) ([]*report.Table, *sanitizer.Summary, *race.Summary, error) {
	runner, ok := Registry()[name]
	if !ok {
		return nil, nil, nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	// Worlds boot concurrently under the parallel scheduler; the hook is
	// the one cross-world touch point, so the slices need a lock.
	var mu sync.Mutex
	var checkers []*sanitizer.Checker
	var detectors []*race.Detector
	restore := workload.SetBootHook(func(w *workload.World) {
		c, d := AttachOracles(w)
		mu.Lock()
		checkers = append(checkers, c)
		detectors = append(detectors, d)
		mu.Unlock()
	})
	defer restore()
	tables := runner(o)
	return tables, sanitizer.Merge(checkers), race.Merge(detectors), nil
}
