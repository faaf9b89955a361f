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
	runner, ok := Registry()[name]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	// Worlds boot concurrently under the parallel scheduler; the hook is
	// the one cross-world touch point, so the slice needs a lock. Merge is
	// an order-independent sum, so the summary stays deterministic.
	var mu sync.Mutex
	var checkers []*sanitizer.Checker
	restore := workload.SetBootHook(func(w *workload.World) {
		c := sanitizer.Attach(w.K, w.F, sanitizer.Config{
			AllowLazyWindow: w.F.Cfg.LazyRemote,
		})
		mu.Lock()
		checkers = append(checkers, c)
		mu.Unlock()
	})
	defer restore()
	tables := runner(o)
	return tables, sanitizer.Merge(checkers), nil
}
