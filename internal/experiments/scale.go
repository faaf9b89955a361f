package experiments

import (
	"fmt"

	"shootdown/internal/core"
	"shootdown/internal/mach"
	"shootdown/internal/report"
	"shootdown/internal/sched"
	"shootdown/internal/workload"
)

// ScaleSweep runs the many-core connection-server workload across machine
// widths (the paper's 56-CPU testbed, then 256 and 512-CPU scale-out
// topologies) under both shootdown dispatch tiers. The paper's argument —
// software overhead, not hardware broadcast cost, dominates shootdowns —
// is width-sensitive: at 512 CPUs a full-width storm crosses 32 x2APIC
// clusters and the ack wait touches hundreds of cache lines, which is
// exactly where the cluster-fanned ICR writes and the per-cluster ack
// aggregation (smp.ClusterAckStores) start to matter. Each cell boots the
// suite's template with its own topology in place of the template's, so
// the widths run side by side under the parallel scheduler.
func ScaleSweep(o Options) []*report.Table {
	cpus := []int{56, 256, 512}
	syncCfg, asyncCfg := asyncTierConfigs()
	tiers := []struct {
		name string
		cfg  core.Config
	}{{"sync", syncCfg}, {"async", asyncCfg}}

	srv := func(topo mach.Topology, cc core.Config) workload.ServerConfig {
		cfg := workload.DefaultServerConfig()
		cfg.Base = o.Base
		cfg.Core = cc
		cfg.Topo = topo
		cfg.Seed = o.seed()
		if o.Quick {
			// CI shape: a fixed recycler set keeps the storm count
			// independent of width (every CPU still serves, so each storm
			// is machine-wide), bounding the 512-CPU cell well under a
			// second instead of the O(width^2) full shape.
			cfg.TasksPerCPU = 1
			cfg.Connections = 1 << 12
			cfg.EventsPerTask = 6
			cfg.RecycleEvery = 3
			cfg.RemapEvery = 5
			cfg.Recyclers = 8
		} else {
			cfg.EventsPerTask = 12
			cfg.RecycleEvery = 4
			cfg.RemapEvery = 9
			cfg.Recyclers = 32
		}
		return cfg
	}

	tab := &report.Table{
		Title: "Scale-out — connection server across machine widths",
		Header: []string{"cpus", "topology", "tier", "makespan", "events",
			"ev/Mcycle", "shootdowns", "ICR writes", "cluster acks"},
	}
	// One job per (width, tier) cell, reassembled index-ordered so the
	// table is byte-identical at any worker count.
	cells := sched.Collect(len(cpus)*len(tiers), func(i int) workload.ServerResult {
		topo, err := mach.ScaleTopology(cpus[i/len(tiers)])
		if err != nil {
			panic(err)
		}
		return workload.RunServer(srv(topo, tiers[i%len(tiers)].cfg))
	})
	for ci, n := range cpus {
		topo, _ := mach.ScaleTopology(n)
		for ti, tier := range tiers {
			r := cells[ci*len(tiers)+ti]
			tab.AddRow(fmt.Sprint(n), topo.Spec(), tier.name,
				report.Cycles(float64(r.Makespan)), fmt.Sprint(r.Events),
				fmt.Sprintf("%.1f", r.EventsPerMCycle()),
				fmt.Sprint(r.Shootdowns), fmt.Sprint(r.ICRWrites),
				fmt.Sprint(r.ClusterAckStores))
		}
	}
	tab.AddNote("each storm is machine-wide: every CPU serves one shared address space, so a recycle shoots down the full active mask")
	tab.AddNote("cluster acks engage above 128 CPUs: responder acks are aggregated onto shared per-(initiator, x2APIC-cluster) lines")
	tab.AddNote("connections are pure data (a million in the full run): load scales with serving tasks and recycles, not connection count")
	return []*report.Table{tab}
}
