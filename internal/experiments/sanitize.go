package experiments

import (
	"fmt"
	"sync"

	"shootdown/internal/report"
	"shootdown/internal/sanitizer"
	"shootdown/internal/workload"
)

// RunSanitized executes the named experiment from the registry with the
// shadow-oracle coherence checker (internal/sanitizer) attached to every
// machine the experiment boots, returning the merged summary alongside
// the tables. The checker is purely observational, so the tables are
// identical to an unchecked run.
//
// The lazy-shootdown extension (core.Config.LazyRemote) is granted its
// designed staleness window: hits on CPUs with queued lazy work are legal
// for that machine (see sanitizer.Config.AllowLazyWindow).
func RunSanitized(name string, o Options) ([]*report.Table, *sanitizer.Summary, error) {
	tables, checkers, err := runChecked(name, o, func(w *workload.World) *sanitizer.Checker {
		return sanitizer.Attach(w.K, w.F, sanitizer.Config{
			AllowLazyWindow: w.F.Cfg.LazyRemote,
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return tables, sanitizer.Merge(checkers), nil
}

// runChecked executes the named experiment with attach called on every
// machine it boots, returning the tables and attach's results, one per
// machine. The callers merge the results with order-independent sums,
// so the summaries stay deterministic at any worker count.
func runChecked[T any](name string, o Options, attach func(*workload.World) T) ([]*report.Table, []T, error) {
	runner, ok := Registry()[name]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	// Worlds boot concurrently under the parallel scheduler; the hook is
	// the one cross-world touch point, so the slice needs a lock.
	var mu sync.Mutex
	var attached []T
	restore := workload.SetBootHook(func(w *workload.World) {
		v := attach(w)
		mu.Lock()
		attached = append(attached, v)
		mu.Unlock()
	})
	defer restore()
	tables := runner(o)
	return tables, attached, nil
}
