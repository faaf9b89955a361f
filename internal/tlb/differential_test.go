package tlb

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"shootdown/internal/pagetable"
)

// refTLB is the TLB as it was before the flat capacity classes: entry maps
// plus FIFO rings whose stale slots a capacity eviction skips lazily, and a
// map-plus-ring page-walk cache. It is kept here as the reference the
// differential test compares TLB against; it records the Hit and Flushed
// streams instead of emitting them.
type refTLB struct {
	cfg Config

	e4k, e2m       map[refKey]*refEntry
	ring4k, ring2m []refSlot
	head4k, head2m int
	seq            uint64

	pwc     map[uint64]uint64
	pwcRing []uint64
	pwcHead int
	pwcSeq  uint64

	fractured bool
	stats     Stats
	hits      []Hit
	flushes   []Flush
}

type refKey struct {
	pcid PCID
	vpn  uint64
}

type refEntry struct {
	e   Entry
	seq uint64
}

type refSlot struct {
	key refKey
	seq uint64
}

func newRef(cfg Config) *refTLB {
	return &refTLB{
		cfg: cfg,
		e4k: make(map[refKey]*refEntry),
		e2m: make(map[refKey]*refEntry),
		pwc: make(map[uint64]uint64),
	}
}

func (t *refTLB) Len() int { return len(t.e4k) + len(t.e2m) }

func (t *refTLB) Lookup(pcid PCID, va uint64) (Entry, bool) {
	for _, probe := range [...]struct {
		m   map[refKey]*refEntry
		key refKey
	}{
		{t.e2m, refKey{pcid, vpn2m(va)}},
		{t.e4k, refKey{pcid, vpn4k(va)}},
		{t.e2m, refKey{globalSpace, vpn2m(va)}},
		{t.e4k, refKey{globalSpace, vpn4k(va)}},
	} {
		if re, ok := probe.m[probe.key]; ok {
			t.stats.Hits++
			t.hits = append(t.hits, Hit{pcid, va, re.e})
			return re.e, true
		}
	}
	t.stats.Misses++
	return Entry{}, false
}

func vpn4k(va uint64) uint64 { return va >> pagetable.PageShift4K }
func vpn2m(va uint64) uint64 { return va >> pagetable.PageShift2M }

func (t *refTLB) Fill(pcid PCID, e Entry) {
	t.seq++
	if e.Global {
		pcid = globalSpace
	}
	if e.Fractured {
		t.fractured = true
	}
	t.stats.Fills++
	switch e.Size {
	case pagetable.Size2M:
		key := refKey{pcid, vpn2m(e.VA)}
		if _, exists := t.e2m[key]; !exists && len(t.e2m) >= t.cfg.Cap2M {
			t.evict(t.e2m, &t.ring2m, &t.head2m)
		}
		t.e2m[key] = &refEntry{e, t.seq}
		t.ring2m = append(t.ring2m, refSlot{key, t.seq})
	default:
		key := refKey{pcid, vpn4k(e.VA)}
		if _, exists := t.e4k[key]; !exists && len(t.e4k) >= t.cfg.Cap4K {
			t.evict(t.e4k, &t.ring4k, &t.head4k)
		}
		t.e4k[key] = &refEntry{e, t.seq}
		t.ring4k = append(t.ring4k, refSlot{key, t.seq})
	}
}

func (t *refTLB) evict(m map[refKey]*refEntry, ring *[]refSlot, head *int) {
	for *head < len(*ring) {
		slot := (*ring)[*head]
		*head++
		if re, ok := m[slot.key]; ok && re.seq == slot.seq {
			delete(m, slot.key)
			t.stats.Evictions++
			return
		}
	}
}

// dropPage removes the entries of pcid and of the global space covering
// va from both classes and returns how many it removed.
func (t *refTLB) dropPage(pcid PCID, va uint64) int {
	removed := 0
	for _, k := range [...]refKey{{pcid, vpn4k(va)}, {globalSpace, vpn4k(va)}} {
		if _, ok := t.e4k[k]; ok {
			delete(t.e4k, k)
			removed++
		}
	}
	for _, k := range [...]refKey{{pcid, vpn2m(va)}, {globalSpace, vpn2m(va)}} {
		if _, ok := t.e2m[k]; ok {
			delete(t.e2m, k)
			removed++
		}
	}
	return removed
}

func (t *refTLB) EvictPage(pcid PCID, va uint64) {
	t.stats.Evictions += uint64(t.dropPage(pcid, va))
}

func (t *refTLB) FlushPage(pcid PCID, va uint64) {
	if t.cfg.FractureRule && t.fractured {
		t.stats.FractureEscalations++
		t.FlushAllNonGlobal()
		return
	}
	t.stats.SelectiveFlushes++
	t.flushes = append(t.flushes, Flush{PCID: pcid, VA: va, Removed: t.dropPage(pcid, va)})
}

// dropIf removes the entries whose tag matches from both classes and
// returns how many it removed.
func (t *refTLB) dropIf(match func(PCID) bool) int {
	removed := 0
	for _, m := range [...]map[refKey]*refEntry{t.e4k, t.e2m} {
		for k := range m {
			if match(k.pcid) {
				delete(m, k)
				removed++
			}
		}
	}
	return removed
}

func (t *refTLB) FlushPCID(pcid PCID) {
	t.stats.FullFlushes++
	removed := t.dropIf(func(tag PCID) bool { return tag == pcid })
	if t.nonGlobalEmpty() {
		t.fractured = false
	}
	t.flushes = append(t.flushes, Flush{Full: true, PCID: pcid, Removed: removed})
}

func (t *refTLB) nonGlobalEmpty() bool {
	for _, m := range [...]map[refKey]*refEntry{t.e4k, t.e2m} {
		for k := range m {
			if k.pcid != globalSpace {
				return false
			}
		}
	}
	return true
}

func (t *refTLB) FlushAllNonGlobal() {
	t.stats.FullFlushes++
	removed := t.dropIf(func(tag PCID) bool { return tag != globalSpace })
	t.fractured = false
	t.flushes = append(t.flushes, Flush{Full: true, Removed: removed})
}

func (t *refTLB) FlushEverything() {
	t.stats.FullFlushes++
	removed := t.Len()
	clear(t.e4k)
	clear(t.e2m)
	t.fractured = false
	t.flushes = append(t.flushes, Flush{Full: true, Removed: removed})
}

// Snapshot lists the 4 KiB entries and then the 2 MiB entries, each
// oldest fill first: the order TLB.Snapshot promises.
func (t *refTLB) Snapshot() []SnapshotEntry {
	var out []SnapshotEntry
	for _, m := range [...]map[refKey]*refEntry{t.e4k, t.e2m} {
		var live []refSlot
		for k, re := range m {
			live = append(live, refSlot{k, re.seq})
		}
		slices.SortFunc(live, func(a, b refSlot) int { return cmp.Compare(a.seq, b.seq) })
		for _, s := range live {
			out = append(out, SnapshotEntry{s.key.pcid, m[s.key].e})
		}
	}
	return out
}

func (t *refTLB) WalkCacheLookup(va uint64) bool {
	if t.cfg.PWCSize <= 0 {
		t.stats.PWCMisses++
		return false
	}
	region := va >> pagetable.PageShift2M
	if _, ok := t.pwc[region]; ok {
		t.stats.PWCHits++
		return true
	}
	t.stats.PWCMisses++
	if len(t.pwc) >= t.cfg.PWCSize {
		for t.pwcHead < len(t.pwcRing) {
			r := t.pwcRing[t.pwcHead]
			t.pwcHead++
			if _, ok := t.pwc[r]; ok {
				delete(t.pwc, r)
				break
			}
		}
	}
	t.pwcSeq++
	t.pwc[region] = t.pwcSeq
	t.pwcRing = append(t.pwcRing, region)
	return false
}

func (t *refTLB) InvalidateWalkCache() {
	clear(t.pwc)
	t.pwcRing = t.pwcRing[:0]
	t.pwcHead = 0
}

// Operations of the differential test's programs.
const (
	opFill = iota
	opLookup
	opFlushPage
	opFlushPCID
	opFlushAllNonGlobal
	opFlushEverything
	opEvictPage
	opWalkCache
	opInvalidateWalkCache
	numOps
)

type diffOp struct {
	kind int
	pcid PCID
	va   uint64
	e    Entry // opFill only
}

// randomOp draws one operation over a small address pool (three 2 MiB
// regions, one of them in the kernel half, eight 4 KiB pages in each) so
// that keys collide, refill and get evicted often.
func randomOp(r *rand.Rand) diffOp {
	pcids := [...]PCID{1, 2, 3, 1, 2, 3, GlobalTag}
	regions := [...]uint64{0, pagetable.PageSize2M, 0xffff800000000000}
	op := diffOp{
		kind: r.Intn(numOps),
		pcid: pcids[r.Intn(len(pcids))],
		va: regions[r.Intn(len(regions))] + uint64(r.Intn(8))*pagetable.PageSize4K +
			uint64(r.Intn(pagetable.PageSize4K)),
	}
	// Fills and lookups dominate, as in a running machine.
	if r.Intn(2) == 0 {
		op.kind = opFill + r.Intn(2)
	}
	if op.kind == opFill {
		size := pagetable.Size4K
		if r.Intn(4) == 0 {
			size = pagetable.Size2M
		}
		op.e = Entry{
			VA:        op.va &^ (size.Bytes() - 1),
			Frame:     uint64(r.Intn(1 << 20)),
			Flags:     pagetable.Flags(r.Intn(1 << 8)),
			Size:      size,
			Global:    r.Intn(5) == 0,
			Fractured: r.Intn(5) == 0,
		}
	}
	return op
}

// TestTLBDifferential runs seeded random programs through TLB and through
// refTLB, the map-and-ring TLB it replaced, with small capacities so that
// capacity evictions, refills and flushes interleave. After every
// operation the lookup result, Stats, Len, Fractured and Snapshot (in
// order: oldest fill first) must agree; at the end, so must the Hit and
// Flushed streams.
func TestTLBDifferential(t *testing.T) {
	const programs, steps = 2000, 300
	for seed := int64(1); seed <= programs; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{
			Cap4K:        1 + r.Intn(12),
			Cap2M:        1 + r.Intn(4),
			PWCSize:      1 + r.Intn(4),
			FractureRule: r.Intn(2) == 0,
		}
		got, want := New(cfg), newRef(cfg)
		var hits []Hit
		var flushes []Flush
		got.Hit.Add(func(h Hit) { hits = append(hits, h) })
		got.Flushed.Add(func(f Flush) { flushes = append(flushes, f) })

		for step := 0; step < steps; step++ {
			op := randomOp(r)
			var gotE, wantE Entry
			var gotOK, wantOK bool
			switch op.kind {
			case opFill:
				got.Fill(op.pcid, op.e)
				want.Fill(op.pcid, op.e)
			case opLookup:
				gotE, gotOK = got.Lookup(op.pcid, op.va)
				wantE, wantOK = want.Lookup(op.pcid, op.va)
			case opFlushPage:
				got.FlushPage(op.pcid, op.va)
				want.FlushPage(op.pcid, op.va)
			case opFlushPCID:
				got.FlushPCID(op.pcid)
				want.FlushPCID(op.pcid)
			case opFlushAllNonGlobal:
				got.FlushAllNonGlobal()
				want.FlushAllNonGlobal()
			case opFlushEverything:
				got.FlushEverything()
				want.FlushEverything()
			case opEvictPage:
				got.EvictPage(op.pcid, op.va)
				want.EvictPage(op.pcid, op.va)
			case opWalkCache:
				gotOK = got.WalkCacheLookup(op.va)
				wantOK = want.WalkCacheLookup(op.va)
			case opInvalidateWalkCache:
				got.InvalidateWalkCache()
				want.InvalidateWalkCache()
			}
			fail := func(what string, g, w any) {
				t.Fatalf("seed %d cfg %+v step %d op %+v: %s = %+v, reference %+v",
					seed, cfg, step, op, what, g, w)
			}
			switch {
			case gotE != wantE || gotOK != wantOK:
				fail("result", []any{gotE, gotOK}, []any{wantE, wantOK})
			case got.Stats() != want.stats:
				fail("stats", got.Stats(), want.stats)
			case got.Len() != want.Len():
				fail("Len", got.Len(), want.Len())
			case got.Fractured() != want.fractured:
				fail("Fractured", got.Fractured(), want.fractured)
			}
			if g, w := got.Snapshot(), want.Snapshot(); !slices.Equal(g, w) {
				fail("snapshot", g, w)
			}
		}
		if !slices.Equal(hits, want.hits) {
			t.Fatalf("seed %d: Hit stream differs:\n got %+v\nwant %+v", seed, hits, want.hits)
		}
		if !slices.Equal(flushes, want.flushes) {
			t.Fatalf("seed %d: Flushed stream differs:\n got %+v\nwant %+v", seed, flushes, want.flushes)
		}
	}
}

// TestFlushRefillBounded is the fracture round: a full flush, then 1,024
// fills. Once warm it allocates nothing, and however many rounds run, the
// 4 KiB class never holds more than Cap4K slots.
func TestFlushRefillBounded(t *testing.T) {
	cfg := DefaultConfig()
	tl := New(cfg)
	round := func() {
		tl.FlushAllNonGlobal()
		for i := uint64(0); i < 1024; i++ {
			tl.Fill(1, e4(i<<pagetable.PageShift4K, i))
		}
	}
	round()
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("flush+refill round allocates %v times, want 0", allocs)
	}
	for i := 0; i < 1000; i++ {
		round()
	}
	if n := cap(tl.c4k.slots); n > cfg.Cap4K {
		t.Fatalf("4 KiB class holds %d slots after 1,000 rounds, want at most Cap4K = %d", n, cfg.Cap4K)
	}
}

// lookupHits keeps BenchmarkLookup's results live.
var lookupHits int

// BenchmarkLookup is the bench probe's shape: 1,024 cached 4 KiB entries,
// and every other lookup misses.
func BenchmarkLookup(b *testing.B) {
	const entries = 1024
	tl := New(DefaultConfig())
	for i := uint64(0); i < entries; i++ {
		tl.Fill(1, e4(i<<pagetable.PageShift4K, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tl.Lookup(1, uint64(i%(2*entries))<<pagetable.PageShift4K); ok {
			lookupHits++
		}
	}
}

// BenchmarkFlushRefill times one fracture round: a full flush, then 1,024
// lookups that miss and refill.
func BenchmarkFlushRefill(b *testing.B) {
	const entries = 1024
	tl := New(DefaultConfig())
	touch := func() {
		for i := uint64(0); i < entries; i++ {
			va := i << pagetable.PageShift4K
			if _, ok := tl.Lookup(1, va); !ok {
				tl.Fill(1, e4(va, i))
			}
		}
	}
	touch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.FlushAllNonGlobal()
		touch()
	}
}
