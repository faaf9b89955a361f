package workload

import (
	"fmt"

	"shootdown/internal/pagetable"
	"shootdown/internal/tlb"
	"shootdown/internal/virt"
)

// FractureConfig parameterizes the Table 4 experiment: count dTLB misses
// after a full vs. a selective (single-page) TLB flush, bare-metal and
// under nested paging with each guest/host page-size combination.
type FractureConfig struct {
	// VM selects nested paging; GuestSize/HostSize apply only then.
	VM                  bool
	GuestSize, HostSize pagetable.Size
	// BufferBytes is the touched working set (must fit the TLB so that
	// misses measure flush behaviour, not capacity).
	BufferBytes uint64
	// Iterations is the number of flush+retouch rounds.
	Iterations int
	// FullFlush selects the full-flush variant; otherwise a single page
	// outside the buffer is flushed selectively, exactly as in the paper
	// ("the flushed page was not mapped in the page-tables so it could
	// not have been cached in the TLB").
	FullFlush bool
}

// FractureResult reports the measured dTLB misses.
type FractureResult struct {
	// Misses is the total dTLB misses over all iterations (excluding the
	// initial fill).
	Misses uint64
	// Escalations counts selective flushes the fracture rule turned into
	// full flushes.
	Escalations uint64
	// EntriesPerIteration is the working-set size in TLB entries.
	EntriesPerIteration int
}

// RunFracture executes the experiment. It is a pure TLB/page-table
// experiment (the paper reads hardware performance counters); no cycle
// costs are charged.
func RunFracture(cfg FractureConfig) (FractureResult, error) {
	if cfg.BufferBytes == 0 {
		cfg.BufferBytes = 4 << 20
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 400
	}
	tcfg := tlb.DefaultConfig()
	tcfg.FractureRule = cfg.VM
	tl := tlb.New(tcfg)
	const pcid tlb.PCID = 1

	// touch fills the TLB for every page of the buffer and reports misses.
	var touch func() error
	// step is the effective entry granularity.
	var step uint64

	if cfg.VM {
		n := virt.New()
		if _, err := n.BuildLinear(cfg.BufferBytes, cfg.GuestSize, cfg.HostSize, pagetable.NewFrameAlloc()); err != nil {
			return FractureResult{}, err
		}
		// The combined entry granularity is the smaller page size.
		step = cfg.GuestSize.Bytes()
		if cfg.HostSize.Bytes() < step {
			step = cfg.HostSize.Bytes()
		}
		touch = func() error {
			for va := uint64(0); va < cfg.BufferBytes; va += step {
				if _, ok := tl.Lookup(pcid, va); ok {
					continue
				}
				c, err := n.Walk(va)
				if err != nil {
					return err
				}
				tl.Fill(pcid, c.Entry())
			}
			return nil
		}
	} else {
		pt := pagetable.New()
		step = cfg.GuestSize.Bytes()
		for va := uint64(0); va < cfg.BufferBytes; va += step {
			if err := pt.Map(va, va>>pagetable.PageShift4K, cfg.GuestSize, pagetable.Write|pagetable.User); err != nil {
				return FractureResult{}, err
			}
		}
		touch = func() error {
			for va := uint64(0); va < cfg.BufferBytes; va += step {
				if _, ok := tl.Lookup(pcid, va); ok {
					continue
				}
				tr, err := pt.Walk(va)
				if err != nil {
					return err
				}
				tl.Fill(pcid, tlb.Entry{VA: tr.VA, Frame: tr.Frame, Flags: tr.Flags, Size: tr.Size})
			}
			return nil
		}
	}

	entries := int(cfg.BufferBytes / step)
	if entries > tcfg.Cap4K {
		return FractureResult{}, fmt.Errorf("workload: buffer (%d entries) exceeds TLB capacity %d", entries, tcfg.Cap4K)
	}

	// Initial fill, then measure.
	if err := touch(); err != nil {
		return FractureResult{}, err
	}
	tl.ResetStats()
	// The selectively flushed page lies outside the buffer, hence was
	// never cached.
	outsideVA := cfg.BufferBytes + 512*pagetable.PageSize2M
	for i := 0; i < cfg.Iterations; i++ {
		if cfg.FullFlush {
			tl.FlushAllNonGlobal()
		} else {
			tl.FlushPage(pcid, outsideVA)
		}
		if err := touch(); err != nil {
			return FractureResult{}, err
		}
	}
	st := tl.Stats()
	return FractureResult{
		Misses:              st.Misses,
		Escalations:         st.FractureEscalations,
		EntriesPerIteration: entries,
	}, nil
}
