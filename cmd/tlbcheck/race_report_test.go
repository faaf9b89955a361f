package main

import (
	"testing"

	"shootdown/internal/race"
)

// TestRaceReportGolden locks down the race report format, the
// happens-before checker's user interface.
func TestRaceReportGolden(t *testing.T) {
	sum := &race.Summary{
		Worlds: 2,
		Races: []race.Race{
			{
				Var: "mm1.pt-nodes", Kind: race.KindReadWrite, At: 73110,
				Msg: "data race on mm1.pt-nodes (read-write):\n" +
					"write of mm1.pt-nodes by cpu0 (t=73110) is concurrent with read by cpu2 (t=72950)\n" +
					"no modeled synchronization edge orders the accesses",
			},
		},
		Stats: race.Stats{
			Threads: 66, Reads: 4, Writes: 2,
			AtomicLoads: 1812, AtomicStores: 9, AtomicRMWs: 341,
			Acquires: 286, Releases: 290, UserReturns: 190,
			SyncObjects: 4, Vars: 212,
		},
	}
	compareGolden(t, "race_report_fail.golden", sum.Report())

	clean := &race.Summary{
		Worlds: 1,
		Stats: race.Stats{
			Threads: 33, Reads: 2, Writes: 1,
			AtomicLoads: 906, AtomicStores: 5, AtomicRMWs: 170,
			Acquires: 143, Releases: 145, UserReturns: 95,
			SyncObjects: 2, Vars: 106,
		},
	}
	compareGolden(t, "race_report_pass.golden", clean.Report())
}
