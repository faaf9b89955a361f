// Package core implements the paper's contribution: the Linux TLB
// shootdown protocol (flush_tlb_mm_range and flush_tlb_func of
// arch/x86/mm/tlb.c, circa 5.2.8) and the six optimizations of
// "Don't shoot down TLB shootdowns!" (EuroSys '20), each independently
// toggleable:
//
//  1. Concurrent flushing (§3.1): the initiator sends IPIs first and
//     flushes its local TLB while they are in flight.
//  2. Early acknowledgement (§3.2): responders ack on interrupt entry,
//     before flushing, unless page tables were freed.
//  3. Cacheline consolidation (§3.3): selected in the SMP layer; this
//     package routes the flush info accordingly (inlined vs. own line).
//  4. In-context flushing (§3.4): user-PCID flushes are deferred to the
//     return-to-user path where INVLPG applies, instead of eager INVPCID;
//     combined with (1), the initiator keeps flushing user PTEs until the
//     first remote ack arrives.
//  5. CoW flush avoidance (§4.1): a kernel write access replaces the local
//     INVLPG after a copy-on-write break (unless the page is executable).
//  6. Userspace-safe batching (§4.2): CPUs inside flagged system calls
//     receive queued flush work instead of IPIs, executed before they
//     return to user space.
package core

import (
	"fmt"
	"strings"

	"shootdown/internal/fault"
)

// Config toggles the paper's optimizations. The zero value is the baseline
// Linux 5.2.8 protocol.
type Config struct {
	// ConcurrentFlush overlaps the initiator's local flush with IPI
	// delivery and remote flushing (§3.1).
	ConcurrentFlush bool
	// EarlyAck lets responders acknowledge on IRQ entry (§3.2). It is
	// automatically suppressed for flushes that free page tables.
	EarlyAck bool
	// CachelineConsolidation enables the §3.3 layout; NewFlusher sets the
	// SMP layer's layout from it.
	CachelineConsolidation bool
	// InContextFlush defers selective user-PCID flushes to kernel exit
	// (§3.4). Only meaningful with PTI.
	InContextFlush bool
	// AvoidCoWFlush replaces the local flush in the CoW handler with a
	// kernel write access (§4.1).
	AvoidCoWFlush bool
	// UserspaceBatching skips IPIs to CPUs inside batched-mode system
	// calls, queueing their flush work instead (§4.2).
	UserspaceBatching bool

	// --- Comparative baselines and extensions beyond the paper's patch
	// set (see EXPERIMENTS.md "extensions") ---

	// SerializedIPIs emulates FreeBSD's smp_ipi_mtx (§3.3): a global
	// mutex allows only one TLB shootdown to be delivered and served at
	// a time, machine wide. A comparative baseline showing why Linux's
	// concurrent-shootdown design matters under contention.
	SerializedIPIs bool
	// LazyRemote emulates LATR-style asynchronous shootdowns (§2.3.2):
	// remote flushes are queued and executed lazily at each target's
	// next kernel entry, with no IPIs and no waiting. UNSAFE by design —
	// it opens the exact correctness window the paper criticizes (a
	// stale translation stays usable after munmap returns); tests
	// demonstrate the violation.
	LazyRemote bool
	// HWMessageIPI models the hardware extension the paper wishes for in
	// §6: the IPI itself carries the flush information, so no shootdown
	// data travels through shared-memory cachelines (no CFD/CSQ/info
	// transfers for the payload; the acknowledgement remains in memory).
	HWMessageIPI bool
	// AsyncShootdown routes non-table-freeing flushes through the
	// queue-based asynchronous fabric (smp/fabric.go): the initiator
	// posts the range to each target's per-CPU invalidation ring, kicks
	// idle rings once, flushes locally, and returns without spinning;
	// responders drain whole batches at IRQ entry and return-to-user and
	// ack by sequence number. FreedTables flushes stay on the
	// synchronous ack path — reclaiming page tables before every
	// responder finished is never safe to defer, which also keeps the
	// §3.2 ack-ordering proof intact. Incompatible with SerializedIPIs
	// and LazyRemote (they model competing dispatch disciplines).
	AsyncShootdown bool

	// Mutant plants at most one deliberately broken protocol variant.
	// UNSAFE by design; the zero value plants none.
	Mutant fault.Mutant
}

// Baseline returns the unmodified Linux protocol configuration.
func Baseline() Config { return Config{} }

// AllGeneral enables the four §3 techniques (the "all" bars in the
// microbenchmark figures).
func AllGeneral() Config {
	return Config{
		ConcurrentFlush:        true,
		EarlyAck:               true,
		CachelineConsolidation: true,
		InContextFlush:         true,
	}
}

// All enables every optimization in the paper.
func All() Config {
	c := AllGeneral()
	c.AvoidCoWFlush = true
	c.UserspaceBatching = true
	return c
}

// configFlag names one Config toggle.
type configFlag struct {
	name string
	on   *bool
}

// flags is the one name table behind String and ParseConfig: every
// toggle, in String's order, bound to c's field.
func (c *Config) flags() []configFlag {
	return []configFlag{
		{"concurrent", &c.ConcurrentFlush},
		{"earlyack", &c.EarlyAck},
		{"cacheline", &c.CachelineConsolidation},
		{"incontext", &c.InContextFlush},
		{"cow", &c.AvoidCoWFlush},
		{"batching", &c.UserspaceBatching},
		{"serialized", &c.SerializedIPIs},
		{"lazy", &c.LazyRemote},
		{"hwmsg", &c.HWMessageIPI},
		{"async", &c.AsyncShootdown},
	}
}

// mutantPrefix marks the planted mutant in a config string.
const mutantPrefix = "BROKEN-"

// String lists the enabled optimizations, then the planted mutant,
// joined by "+", or "baseline". ParseConfig is its inverse.
func (c Config) String() string {
	var names []string
	for _, f := range c.flags() {
		if *f.on {
			names = append(names, f.name)
		}
	}
	if c.Mutant != fault.NoMutant {
		names = append(names, mutantPrefix+c.Mutant.String())
	}
	if len(names) == 0 {
		return "baseline"
	}
	return strings.Join(names, "+")
}

// ParseConfig reads a config as String writes it: optimization names
// joined by "+" (or ","), or "baseline" (also "") for the zero config.
// "all" names AllGeneral, the four §3 techniques of the figures' "all"
// bars. A second mutant is an error. ParseConfig(c.String()) == c for
// every c.
func ParseConfig(s string) (Config, error) {
	var c Config
	switch s {
	case "", "baseline":
		return c, nil
	case "all":
		return AllGeneral(), nil
	}
	for _, name := range strings.Split(strings.ReplaceAll(s, ",", "+"), "+") {
		name = strings.TrimSpace(name)
		if c.set(name) {
			continue
		}
		bare, ok := strings.CutPrefix(name, mutantPrefix)
		m, err := fault.ParseMutant(bare)
		if !ok || err != nil {
			names := []string{"baseline", "all"}
			for _, f := range c.flags() {
				names = append(names, f.name)
			}
			for _, m := range fault.Mutants() {
				names = append(names, mutantPrefix+m.String())
			}
			return Config{}, fmt.Errorf("core: unknown optimization %q (have %s)", name, strings.Join(names, ", "))
		}
		if c.Mutant != fault.NoMutant {
			return Config{}, fmt.Errorf("core: %q after %q: a config plants at most one mutant", name, mutantPrefix+c.Mutant.String())
		}
		c.Mutant = m
	}
	return c, nil
}

// set turns on the toggle called name, reporting whether one exists.
func (c *Config) set(name string) bool {
	for _, f := range c.flags() {
		if f.name == name {
			*f.on = true
			return true
		}
	}
	return false
}

// CumulativeConfigs returns the paper's presentation order: baseline, then
// each optimization added one at a time (legend order of Figures 5-11).
// includePTI controls whether in-context flushing appears (it is omitted
// in unsafe mode, where there is no PTI).
func CumulativeConfigs(includePTI bool) []Config {
	var out []Config
	c := Config{}
	out = append(out, c)
	c.ConcurrentFlush = true
	out = append(out, c)
	c.EarlyAck = true
	out = append(out, c)
	c.CachelineConsolidation = true
	out = append(out, c)
	if includePTI {
		c.InContextFlush = true
		out = append(out, c)
	}
	return out
}

// Stats counts protocol activity.
type Stats struct {
	// Shootdowns is the number of FlushAfter invocations that had remote
	// targets.
	Shootdowns uint64
	// LocalOnly counts flushes with no remote targets.
	LocalOnly uint64
	// RemoteSelective / RemoteFull / RemoteSkipped classify responder-side
	// outcomes: ranged flush, full-flush catch-up, or skip because the
	// local generation was already current (flush storms, §5.2).
	RemoteSelective, RemoteFull, RemoteSkipped uint64
	// LazySkips counts CPUs skipped because they idled in lazy-TLB mode.
	LazySkips uint64
	// BatchedSkips counts IPIs avoided via userspace-safe batching.
	BatchedSkips uint64
	// BatchedOverflows counts batched queues that spilled into a full
	// flush (more than the 4 tracked entries, §4.2).
	BatchedOverflows uint64
	// CoWWriteTricks / CoWLocalFlushes split §4.1 outcomes.
	CoWWriteTricks, CoWLocalFlushes uint64
	// EarlyAckSuppressed counts shootdowns that had to use late acks
	// because page tables were freed.
	EarlyAckSuppressed uint64
	// UserPTEsFlushedWhileWaiting counts user PTEs the initiator flushed
	// eagerly during the ack wait (§3.4 interaction).
	UserPTEsFlushedWhileWaiting uint64
	// LazyDeferred counts remote flushes deferred by the LATR-style
	// lazy extension instead of being delivered by IPI.
	LazyDeferred uint64
	// ParavirtFullFlushes counts ranged flushes converted to full flushes
	// by the §7 paravirtual fracture hint.
	ParavirtFullFlushes uint64
	// AsyncShootdowns counts flushes posted through the asynchronous
	// fabric instead of the synchronous ack path.
	AsyncShootdowns uint64
	// AsyncSyncFallbacks counts flushes that stayed synchronous under
	// AsyncShootdown because they freed page tables.
	AsyncSyncFallbacks uint64
}

func (c Config) validate() error {
	if c.AsyncShootdown && c.SerializedIPIs {
		return fmt.Errorf("core: AsyncShootdown is incompatible with SerializedIPIs (competing dispatch disciplines)")
	}
	if c.AsyncShootdown && c.LazyRemote {
		return fmt.Errorf("core: AsyncShootdown is incompatible with LazyRemote (competing dispatch disciplines)")
	}
	if c.Mutant.NeedsAsync() && !c.AsyncShootdown {
		return fmt.Errorf("core: mutant %s requires AsyncShootdown", c.Mutant)
	}
	return nil
}
