package mach

import (
	"math/bits"
	"math/rand"
	"testing"
)

// denseMask is the retired fixed-width CPUMask kept as a test-only
// reference model: the exact word-indexing algorithm the package shipped
// with (then [2]uint64, capped at 128 CPUs), widened to 16 words so the
// same arithmetic covers the 512/1024-CPU capacities the sparse mask is
// exercised at. Every sparse-mask operation is checked word-for-word
// against this model under random op sequences.
type denseMask struct {
	w [16]uint64
}

func (m *denseMask) set(cpu CPU)     { m.w[int(cpu)/64] |= 1 << (uint(cpu) % 64) }
func (m *denseMask) clear(cpu CPU)   { m.w[int(cpu)/64] &^= 1 << (uint(cpu) % 64) }
func (m denseMask) has(cpu CPU) bool { return m.w[int(cpu)/64]&(1<<(uint(cpu)%64)) != 0 }
func (m denseMask) and(o denseMask) denseMask {
	var out denseMask
	for i := range m.w {
		out.w[i] = m.w[i] & o.w[i]
	}
	return out
}
func (m denseMask) or(o denseMask) denseMask {
	var out denseMask
	for i := range m.w {
		out.w[i] = m.w[i] | o.w[i]
	}
	return out
}
func (m denseMask) andNot(o denseMask) denseMask {
	var out denseMask
	for i := range m.w {
		out.w[i] = m.w[i] &^ o.w[i]
	}
	return out
}
func (m denseMask) count() int {
	n := 0
	for _, w := range m.w {
		n += bits.OnesCount64(w)
	}
	return n
}
func (m denseMask) cpus() []CPU {
	cpus := make([]CPU, 0, m.count())
	for wi, w := range m.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			cpus = append(cpus, CPU(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	return cpus
}

// sameMembers checks the sparse mask against the dense reference:
// membership for every CPU below capacity, count, and the full ascending
// member list (both CPUs() and ForEach order).
func sameMembers(t *testing.T, tag string, m CPUMask, ref denseMask, capacity int) {
	t.Helper()
	if m.Count() != ref.count() {
		t.Fatalf("%s: Count = %d, reference %d", tag, m.Count(), ref.count())
	}
	if m.Empty() != (ref.count() == 0) {
		t.Fatalf("%s: Empty = %v with %d members", tag, m.Empty(), ref.count())
	}
	for cpu := 0; cpu < capacity; cpu++ {
		if m.Has(CPU(cpu)) != ref.has(CPU(cpu)) {
			t.Fatalf("%s: Has(%d) = %v, reference %v", tag, cpu, m.Has(CPU(cpu)), ref.has(CPU(cpu)))
		}
	}
	got, want := m.CPUs(), ref.cpus()
	if len(got) != len(want) {
		t.Fatalf("%s: CPUs() = %v, reference %v", tag, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: CPUs()[%d] = %d, reference %d", tag, i, got[i], want[i])
		}
	}
	var walked []CPU
	m.ForEach(func(c CPU) { walked = append(walked, c) })
	if len(walked) != len(want) {
		t.Fatalf("%s: ForEach visited %v, reference %v", tag, walked, want)
	}
	for i := range want {
		if walked[i] != want[i] {
			t.Fatalf("%s: ForEach[%d] = %d, reference %d", tag, i, walked[i], want[i])
		}
	}
}

// TestCPUMaskEquivalenceRandomOps drives a random sequence of mutating and
// combining operations against the sparse mask and the dense reference in
// lock-step at each of the capacities named in the scale-out plan.
func TestCPUMaskEquivalenceRandomOps(t *testing.T) {
	for _, capacity := range []int{56, 128, 512, 1024} {
		capacity := capacity
		t.Run(itoa(capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xC0FFEE + capacity)))
			m := NewCPUMask(capacity)
			var ref denseMask
			other := MaskOf()
			var otherRef denseMask
			for step := 0; step < 4000; step++ {
				cpu := CPU(rng.Intn(capacity))
				switch rng.Intn(8) {
				case 0, 1, 2: // bias toward Set so masks stay populated
					m.Set(cpu)
					ref.set(cpu)
				case 3:
					m.Clear(cpu)
					ref.clear(cpu)
				case 4:
					other.Set(cpu)
					otherRef.set(cpu)
				case 5:
					got, want := m.And(other), ref.and(otherRef)
					sameMembers(t, "And", got, want, capacity)
				case 6:
					got, want := m.Or(other), ref.or(otherRef)
					sameMembers(t, "Or", got, want, capacity)
				case 7:
					got, want := m.AndNot(other), ref.andNot(otherRef)
					sameMembers(t, "AndNot", got, want, capacity)
				}
				if step%97 == 0 {
					sameMembers(t, "step", m, ref, capacity)
				}
			}
			sameMembers(t, "final", m, ref, capacity)
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestCPUMaskStringMatchesReference checks String against a rendering of
// the reference member list under random contents.
func TestCPUMaskStringMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var m CPUMask
		var ref denseMask
		for i := 0; i < rng.Intn(20); i++ {
			cpu := CPU(rng.Intn(1024))
			m.Set(cpu)
			ref.set(cpu)
		}
		want := "{"
		for i, c := range ref.cpus() {
			if i > 0 {
				want += ","
			}
			want += itoa(int(c))
		}
		want += "}"
		if got := m.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

// TestCPUMaskEmptyAndFull covers the edge contents at each capacity.
func TestCPUMaskEmptyAndFull(t *testing.T) {
	for _, capacity := range []int{56, 128, 512, 1024} {
		empty := NewCPUMask(capacity)
		if !empty.Empty() || empty.Count() != 0 || len(empty.CPUs()) != 0 {
			t.Fatalf("capacity %d: preallocated mask not empty", capacity)
		}
		if empty.String() != "{}" {
			t.Fatalf("capacity %d: empty String = %q", capacity, empty.String())
		}
		full := NewCPUMask(capacity)
		for cpu := 0; cpu < capacity; cpu++ {
			full.Set(CPU(cpu))
		}
		if full.Count() != capacity {
			t.Fatalf("capacity %d: full Count = %d", capacity, full.Count())
		}
		if got := full.CPUs(); len(got) != capacity || got[0] != 0 || got[capacity-1] != CPU(capacity-1) {
			t.Fatalf("capacity %d: full CPUs bounds wrong", capacity)
		}
		if !full.And(full).Equal(full) || !full.Or(empty).Equal(full) {
			t.Fatalf("capacity %d: full identity ops failed", capacity)
		}
		if !full.AndNot(full).Empty() {
			t.Fatalf("capacity %d: full AndNot full not empty", capacity)
		}
		drained := full.Clone()
		for cpu := 0; cpu < capacity; cpu++ {
			drained.Clear(CPU(cpu)) // draining must also not disturb full
		}
		if !drained.Empty() || full.Count() != capacity {
			t.Fatalf("capacity %d: drain broke Clone independence", capacity)
		}
	}
}

// TestCPUMaskOutOfRangePanics is the overflow regression test: the old
// [2]uint64 mask silently indexed out of range for CPU >= 128; the sparse
// mask must reject ids outside [0, MaxCPUs) loudly on every accessor.
func TestCPUMaskOutOfRangePanics(t *testing.T) {
	mustPanic := func(tag string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on out-of-range CPU", tag)
			}
		}()
		fn()
	}
	var m CPUMask
	for _, cpu := range []CPU{-1, MaxCPUs, MaxCPUs + 7} {
		cpu := cpu
		mustPanic("Set", func() { m.Set(cpu) })
		mustPanic("Clear", func() { m.Clear(cpu) })
		mustPanic("Has", func() { _ = m.Has(cpu) })
		mustPanic("MaskOf", func() { _ = MaskOf(cpu) })
	}
	// In-range ids above the old 128 hard cap must now just work.
	m.Set(130)
	m.Set(MaxCPUs - 1)
	if !m.Has(130) || !m.Has(MaxCPUs-1) || m.Count() != 2 {
		t.Fatal("mask rejects valid ids above the retired 128-CPU cap")
	}
}

// TestCPUMaskCloneIsolation pins the documented reference semantics:
// value copies share storage (callers must not mutate them), Clone and the
// value-returning operators return isolated storage.
func TestCPUMaskCloneIsolation(t *testing.T) {
	orig := MaskOf(1, 65, 300)
	cl := orig.Clone()
	cl.Set(2)
	cl.Clear(65)
	if orig.Has(2) || !orig.Has(65) || orig.Count() != 3 {
		t.Fatalf("Clone shares storage with original: %v", orig)
	}
	for _, derived := range []CPUMask{orig.And(orig), orig.Or(orig), orig.AndNot(CPUMask{})} {
		derived.Set(63)
		if orig.Has(63) {
			t.Fatalf("derived mask aliases original: %v", orig)
		}
		orig.Clear(63)
	}
}

// TestNewCPUMaskPreallocates checks that Sets below the declared capacity
// reuse the preallocated words (no growth reallocation observable through
// a stale alias).
func TestNewCPUMaskPreallocates(t *testing.T) {
	m := NewCPUMask(512)
	// The value copy shares word storage (not the summary scalar); bits
	// set in m stay visible through it only while m never reallocates.
	alias := m
	for cpu := 0; cpu < 512; cpu += 17 {
		m.Set(CPU(cpu))
	}
	for cpu := 0; cpu < 512; cpu += 17 {
		if !alias.Has(CPU(cpu)) {
			t.Fatalf("Set below capacity reallocated words (cpu %d missing in alias)", cpu)
		}
	}
}
