// Package tlb models a per-core translation lookaside buffer with
// process-context identifiers (PCIDs), global entries, separate 4 KiB and
// 2 MiB capacity classes, a page-walk cache, and the Intel "page
// fracturing" behaviour the paper documents in §7/Table 4.
//
// The TLB is purely mechanical: it caches translations and implements the
// x86 invalidation primitives (CR3 write, INVLPG, INVPCID). Deciding *when*
// to invalidate — the shootdown protocol — lives in internal/core; deciding
// walk costs lives in the kernel layer.
//
// Each capacity class is a bounded flat table: entries live by value in at
// most capacity slots, an open-addressed index finds them by PCID and page
// number, and a list in last-fill order names the capacity victim, so
// eviction is FIFO by last fill (a refill makes its entry the newest).
// Once a class has grown to its working set, lookups, fills and flushes
// allocate nothing. The page-walk cache is a FIFO array of regions.
package tlb

import (
	"math/bits"

	"shootdown/internal/obs"
	"shootdown/internal/pagetable"
)

// PCID is a process-context identifier tagging TLB entries with their
// address space (x86 allows 4096 of them; Linux uses a small rotation).
type PCID uint16

// Entry is one cached translation.
type Entry struct {
	// VA is the page-aligned virtual address.
	VA uint64
	// Frame is the physical frame number.
	Frame uint64
	// Flags are the leaf PTE flags at fill time.
	Flags pagetable.Flags
	// Size is the cached page size.
	Size pagetable.Size
	// Global marks kernel entries that survive PCID-tagged flushes.
	Global bool
	// Fractured marks an entry produced by a nested walk where the guest
	// page is huge but the host backing is 4 KiB (paper §7): caching any
	// such entry forces the CPU to escalate selective flushes.
	Fractured bool
}

// Stats counts TLB events.
type Stats struct {
	Hits, Misses     uint64
	Fills, Evictions uint64
	// FullFlushes counts whole-TLB (or whole-PCID) invalidations;
	// SelectiveFlushes counts single-address invalidations;
	// FractureEscalations counts selective flushes escalated to full
	// flushes by the fracture rule.
	FullFlushes, SelectiveFlushes, FractureEscalations uint64
	// PWCHits/PWCMisses count page-walk-cache outcomes reported via
	// WalkCacheLookup.
	PWCHits, PWCMisses uint64
}

// Config sizes a TLB.
type Config struct {
	// Cap4K and Cap2M bound the number of cached 4 KiB / 2 MiB entries
	// (Skylake-era second-level TLB: 1536 / 32).
	Cap4K, Cap2M int
	// PWCSize bounds the page-walk cache (cached PDE regions).
	PWCSize int
	// FractureRule enables the Intel behaviour where a selective flush
	// becomes a full flush whenever a fractured translation may be cached.
	// Only meaningful when running nested (under the virt package).
	FractureRule bool
}

// DefaultConfig returns a Skylake-like TLB configuration.
func DefaultConfig() Config {
	return Config{Cap4K: 1536, Cap2M: 32, PWCSize: 32}
}

// TLB is one core's translation cache.
type TLB struct {
	cfg Config

	c4k, c2m class

	// pwc caches upper-level walk state as va>>21 regions in fill order,
	// at most PWCSize of them. Once it is full, pwcNext is the oldest
	// region, the one the next miss overwrites.
	pwc     []uint64
	pwcNext int

	// fractured is set while any fractured entry may be cached. It is a
	// sticky hardware flag: only a full flush clears it.
	fractured bool

	stats Stats

	// Hit fires on every successful Lookup; Flushed after every
	// invalidation, once it has fully taken effect, so an observer never
	// sees a half-applied flush.
	Hit     obs.Hook[Hit]
	Flushed obs.Hook[Flush]
}

// Hit is a successful Lookup: the probing PCID and address, and the entry
// that satisfied them (possibly a global entry).
type Hit struct {
	PCID  PCID
	VA    uint64
	Entry Entry
}

// Flush is one completed invalidation.
type Flush struct {
	// Full marks a whole-context or all-context flush (FlushPCID,
	// FlushAllNonGlobal, FlushEverything, and selective flushes the
	// fracture rule escalated); FlushPage leaves it false.
	Full bool
	// PCID is the flushed context (FlushPage and FlushPCID only), VA the
	// flushed page (FlushPage only).
	PCID PCID
	VA   uint64
	// Removed counts the entries actually dropped; 0 means the flush was
	// redundant.
	Removed int
}

// New returns an empty TLB.
func New(cfg Config) *TLB {
	if cfg.Cap4K <= 0 || cfg.Cap2M <= 0 {
		panic("tlb: capacities must be positive")
	}
	return &TLB{
		cfg: cfg,
		c4k: newClass(pagetable.PageShift4K, cfg.Cap4K),
		c2m: newClass(pagetable.PageShift2M, cfg.Cap2M),
	}
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Len returns the number of cached entries (both size classes).
func (t *TLB) Len() int { return t.c4k.n + t.c2m.n }

// Fractured reports whether the fracture flag is currently set.
func (t *TLB) Fractured() bool { return t.fractured }

// Lookup returns the cached translation for (pcid, va) if present. Global
// entries match under any PCID, as on x86.
func (t *TLB) Lookup(pcid PCID, va uint64) (Entry, bool) {
	e := t.c2m.get(pcid, va)
	if e == nil {
		e = t.c4k.get(pcid, va)
	}
	// Global entries are stored under their own tag but match any PCID;
	// a class caching none skips the probe.
	if e == nil {
		e = t.c2m.get(globalSpace, va)
	}
	if e == nil {
		e = t.c4k.get(globalSpace, va)
	}
	if e == nil {
		t.stats.Misses++
		return Entry{}, false
	}
	t.stats.Hits++
	t.Hit.Emit(Hit{pcid, va, *e})
	return *e, true
}

// globalSpace is the internal PCID tag for global entries.
const globalSpace PCID = 0xffff

// Fill inserts a translation for pcid. Global entries ignore pcid.
func (t *TLB) Fill(pcid PCID, e Entry) {
	if e.Global {
		pcid = globalSpace
	}
	if e.Fractured {
		t.fractured = true
	}
	t.stats.Fills++
	c := &t.c4k
	if e.Size == pagetable.Size2M {
		c = &t.c2m
	}
	if c.fill(pcid, e) {
		t.stats.Evictions++
	}
}

// EvictPage silently drops any cached entries (both size classes, and
// matching global entries) covering (pcid, va) — a spurious conflict
// eviction, injected by the fault plane to model TLB pressure the
// simulator's capacity limits would not produce on their own. Like capacity
// evictions it emits no event: evictions only ever shrink the cached set,
// so no coherence obligation can depend on them.
func (t *TLB) EvictPage(pcid PCID, va uint64) {
	t.stats.Evictions += uint64(t.c4k.drop(pcid, va) + t.c2m.drop(pcid, va))
}

// FlushPage implements a single-address invalidation (INVLPG/INVPCID
// single-address semantics): it removes any 4 KiB and 2 MiB entries of the
// PCID covering va, plus matching global entries.
//
// If the fracture rule is enabled and a fractured translation may be
// cached, the flush escalates to a full non-global flush, as observed on
// Intel hardware (paper §7, Table 4).
func (t *TLB) FlushPage(pcid PCID, va uint64) {
	if t.cfg.FractureRule && t.fractured {
		t.stats.FractureEscalations++
		t.FlushAllNonGlobal()
		return
	}
	t.stats.SelectiveFlushes++
	removed := t.c4k.drop(pcid, va) + t.c2m.drop(pcid, va)
	t.Flushed.Emit(Flush{PCID: pcid, VA: va, Removed: removed})
}

// FlushPCID removes all non-global entries tagged pcid (MOV-to-CR3 without
// NOFLUSH for that PCID, or INVPCID single-context).
func (t *TLB) FlushPCID(pcid PCID) {
	t.stats.FullFlushes++
	tagged := func(tag PCID) bool { return tag == pcid }
	removed := t.c4k.dropIf(tagged) + t.c2m.dropIf(tagged)
	// A full flush of an address space also drops fractured entries of
	// that space; since the hardware flag is conservative and global, we
	// clear it only when the whole TLB is emptied of non-globals.
	if t.nonGlobalEmpty() {
		t.fractured = false
	}
	t.Flushed.Emit(Flush{Full: true, PCID: pcid, Removed: removed})
}

// FlushAllNonGlobal removes every non-global entry regardless of PCID
// (INVPCID all-contexts-retaining-globals).
func (t *TLB) FlushAllNonGlobal() {
	t.stats.FullFlushes++
	removed := t.c4k.dropNonGlobal() + t.c2m.dropNonGlobal()
	t.fractured = false
	t.Flushed.Emit(Flush{Full: true, Removed: removed})
}

// FlushEverything removes all entries including globals (INVPCID
// all-contexts, or CR4.PGE toggle).
func (t *TLB) FlushEverything() {
	t.stats.FullFlushes++
	removed := t.c4k.reset() + t.c2m.reset()
	t.fractured = false
	t.Flushed.Emit(Flush{Full: true, Removed: removed})
}

func (t *TLB) nonGlobalEmpty() bool {
	return t.c4k.n == t.c4k.globals && t.c2m.n == t.c2m.globals
}

// SnapshotEntry pairs a cached entry with the PCID tag it is stored under
// (GlobalTag for global entries).
type SnapshotEntry struct {
	PCID  PCID
	Entry Entry
}

// GlobalTag is the PCID tag under which global entries appear in
// Snapshot output.
const GlobalTag = globalSpace

// Snapshot returns every cached entry with its PCID tag: the 4 KiB
// entries oldest fill first, then the 2 MiB entries in the same order.
// Intended for invariant checks; because the order is deterministic, a
// checker that reports from it (tlbfuzz's coherence check) prints its
// failures in a stable order.
func (t *TLB) Snapshot() []SnapshotEntry {
	out := make([]SnapshotEntry, 0, t.Len())
	for _, c := range [...]*class{&t.c4k, &t.c2m} {
		for i := c.head; i != none; i = c.slots[i].next {
			out = append(out, SnapshotEntry{c.slots[i].tag, c.slots[i].e})
		}
	}
	return out
}

// --- Capacity classes ---

// class holds the entries of one page size: at most limit of them, stored
// by value in slots and found through index, an open-addressed table keyed
// by (tag, VA>>shift). Live slots form a doubly linked list in last-fill
// order, whose head is the next capacity victim; freed slots form a list
// through next, headed by free.
type class struct {
	shift uint
	limit int
	slots []slot
	// index holds slot numbers plus one (0 is empty) in a power-of-two
	// table kept at most half full. Lookups probe linearly from an
	// entry's home position; deletion shifts later entries back, so no
	// tombstones build up.
	index     []int32
	hashShift uint

	head, tail, free int32 // none when the list is empty
	n, globals       int   // live entries, and those tagged globalSpace
}

type slot struct {
	e          Entry
	tag        PCID
	prev, next int32
}

const none = -1

func newClass(shift uint, limit int) class {
	return class{shift: shift, limit: limit, head: none, tail: none, free: none}
}

// home is the index position where the probe for (tag, vpn) starts.
func (c *class) home(tag PCID, vpn uint64) uint64 {
	return ((vpn ^ uint64(tag)<<48) * 0x9e3779b97f4a7c15) >> c.hashShift
}

// find returns the slot of the entry stored under tag that covers va, or
// none. It probes only when such an entry can exist.
func (c *class) find(tag PCID, va uint64) int32 {
	if c.n == 0 || tag == globalSpace && c.globals == 0 {
		return none
	}
	vpn := va >> c.shift
	mask := uint64(len(c.index) - 1)
	for p := c.home(tag, vpn); ; p = (p + 1) & mask {
		i := c.index[p] - 1
		if i == none {
			return none
		}
		if s := &c.slots[i]; s.tag == tag && s.e.VA>>c.shift == vpn {
			return i
		}
	}
}

// get returns the entry stored under tag that covers va, or nil.
func (c *class) get(tag PCID, va uint64) *Entry {
	if i := c.find(tag, va); i != none {
		return &c.slots[i].e
	}
	return nil
}

// fill stores e under tag as the newest entry, replacing any entry of the
// same key, and reports whether it evicted the oldest entry to make room.
func (c *class) fill(tag PCID, e Entry) (evicted bool) {
	if i := c.find(tag, e.VA); i != none {
		c.slots[i].e = e
		c.unlink(i)
		c.link(i)
		return false
	}
	if c.n >= c.limit {
		c.remove(c.head)
		evicted = true
	}
	if 2*(c.n+1) > len(c.index) {
		c.rehash(max(8, 2*len(c.index)))
	}
	i := c.alloc()
	c.slots[i].e, c.slots[i].tag = e, tag
	c.link(i)
	c.index[c.seek(i, 0)] = i + 1
	c.n++
	if tag == globalSpace {
		c.globals++
	}
	return evicted
}

// alloc returns a free slot, growing the slot storage (never beyond limit)
// when no freed slot is left.
func (c *class) alloc() int32 {
	if i := c.free; i != none {
		c.free = c.slots[i].next
		return i
	}
	if len(c.slots) == cap(c.slots) {
		grown := make([]slot, len(c.slots), min(max(2*len(c.slots), 4), c.limit))
		copy(grown, c.slots)
		c.slots = grown
	}
	c.slots = c.slots[:len(c.slots)+1]
	return int32(len(c.slots) - 1)
}

// seek probes from slot i's home for the first index position holding v:
// 0 finds where to place slot i, i+1 finds where it is.
func (c *class) seek(i, v int32) uint64 {
	s := &c.slots[i]
	mask := uint64(len(c.index) - 1)
	p := c.home(s.tag, s.e.VA>>c.shift)
	for c.index[p] != v {
		p = (p + 1) & mask
	}
	return p
}

// rehash rebuilds the index at size positions, a power of two.
func (c *class) rehash(size int) {
	c.index = make([]int32, size)
	c.hashShift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := c.head; i != none; i = c.slots[i].next {
		c.index[c.seek(i, 0)] = i + 1
	}
}

// remove drops the entry in slot i and frees the slot.
func (c *class) remove(i int32) {
	c.unindex(c.seek(i, i+1))
	c.unlink(i)
	if c.slots[i].tag == globalSpace {
		c.globals--
	}
	c.n--
	c.slots[i].next = c.free
	c.free = i
}

// unindex empties index position p. Each later entry of the probe run
// whose home does not lie after the hole moves back into it, so every
// remaining entry stays reachable from its home.
func (c *class) unindex(p uint64) {
	mask := uint64(len(c.index) - 1)
	for q := (p + 1) & mask; c.index[q] != 0; q = (q + 1) & mask {
		s := &c.slots[c.index[q]-1]
		if (q-c.home(s.tag, s.e.VA>>c.shift))&mask >= (q-p)&mask {
			c.index[p] = c.index[q]
			p = q
		}
	}
	c.index[p] = 0
}

// link appends slot i to the fill-order list as the newest entry.
func (c *class) link(i int32) {
	c.slots[i].prev, c.slots[i].next = c.tail, none
	if c.tail != none {
		c.slots[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
}

// unlink takes slot i out of the fill-order list.
func (c *class) unlink(i int32) {
	s := &c.slots[i]
	if s.prev != none {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != none {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// drop removes the entries stored under tag and under globalSpace that
// cover va, and returns how many it removed.
func (c *class) drop(tag PCID, va uint64) int {
	removed := 0
	for _, k := range [...]PCID{tag, globalSpace} {
		if i := c.find(k, va); i != none {
			c.remove(i)
			removed++
		}
	}
	return removed
}

// dropIf removes every entry whose tag matches and returns how many it
// removed.
func (c *class) dropIf(match func(tag PCID) bool) int {
	removed := 0
	for i := c.head; i != none; {
		next := c.slots[i].next
		if match(c.slots[i].tag) {
			c.remove(i)
			removed++
		}
		i = next
	}
	return removed
}

// dropNonGlobal removes every entry not tagged globalSpace and returns
// how many it removed.
func (c *class) dropNonGlobal() int {
	if c.globals == 0 {
		return c.reset()
	}
	return c.dropIf(func(tag PCID) bool { return tag != globalSpace })
}

// reset empties the class, keeping its storage, and returns how many
// entries it removed.
func (c *class) reset() int {
	n := c.n
	if n > 0 {
		c.slots = c.slots[:0]
		clear(c.index)
		c.head, c.tail, c.free = none, none, none
		c.n, c.globals = 0, 0
	}
	return n
}

// --- Page-walk cache ---

// WalkCacheLookup reports whether the upper-level walk state for va is
// cached, inserting it if not. The caller uses the result to pick the
// partial-walk or full-walk cost.
func (t *TLB) WalkCacheLookup(va uint64) (hit bool) {
	if t.cfg.PWCSize <= 0 {
		t.stats.PWCMisses++
		return false
	}
	region := va >> pagetable.PageShift2M
	for _, r := range t.pwc {
		if r == region {
			t.stats.PWCHits++
			return true
		}
	}
	t.stats.PWCMisses++
	if len(t.pwc) < t.cfg.PWCSize {
		t.pwc = append(t.pwc, region)
		return false
	}
	t.pwc[t.pwcNext] = region
	t.pwcNext = (t.pwcNext + 1) % len(t.pwc)
	return false
}

// InvalidateWalkCache drops the entire page-walk cache. INVLPG flushes the
// whole page-structure cache (paper §5.1, "in-context flushing ... INVLPG
// flushes the entire page-structure cache"); INVPCID single-address does
// not, so callers invoke this only on the INVLPG path.
func (t *TLB) InvalidateWalkCache() {
	t.pwc = t.pwc[:0]
	t.pwcNext = 0
}
