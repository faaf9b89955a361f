package experiments

import (
	"fmt"
	"sync"

	"shootdown/internal/race"
	"shootdown/internal/report"
	"shootdown/internal/workload"
)

// RunRace executes the named experiment with the happens-before race
// detector (internal/race) attached to every machine the experiment boots,
// returning the merged race summary alongside the tables. The detector is
// purely observational, so the tables are identical to an unchecked run.
func RunRace(name string, o Options) ([]*report.Table, *race.Summary, error) {
	runner, ok := Registry()[name]
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	// Worlds boot concurrently under the parallel scheduler; guard the
	// shared slice. Merge sums order-independent counters, so the summary
	// stays deterministic at any worker count.
	var mu sync.Mutex
	var detectors []*race.Detector
	restore := workload.SetBootHook(func(w *workload.World) {
		d := race.New(w.Eng)
		w.K.EnableRace(d)
		// The flusher was built before the hook ran; re-wire its own sync
		// objects (the SerializedIPIs mutex) to the detector.
		w.F.EnableRace()
		mu.Lock()
		detectors = append(detectors, d)
		mu.Unlock()
	})
	defer restore()
	tables := runner(o)
	return tables, race.Merge(detectors), nil
}
