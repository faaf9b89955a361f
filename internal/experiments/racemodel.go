package experiments

import (
	"shootdown/internal/race"
	"shootdown/internal/report"
	"shootdown/internal/workload"
)

// RunRace executes the named experiment with the happens-before race
// detector (internal/race) attached to every machine the experiment boots,
// returning the merged race summary alongside the tables. The detector is
// purely observational, so the tables are identical to an unchecked run.
func RunRace(name string, o Options) ([]*report.Table, *race.Summary, error) {
	tables, detectors, err := runChecked(name, o, func(w *workload.World) *race.Detector {
		d := race.New(w.Eng)
		w.K.EnableRace(d)
		// The flusher was built before the hook ran; re-wire its own sync
		// objects (the SerializedIPIs mutex) to the detector.
		w.F.EnableRace()
		return d
	})
	if err != nil {
		return nil, nil, err
	}
	return tables, race.Merge(detectors), nil
}
