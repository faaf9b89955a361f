package mach

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxCPUs bounds the CPU ids a mask can hold. The limit exists so the
// one-word summary level below always suffices (64 summary bits x 64 CPUs
// per word); it comfortably covers the 256-1024 CPU scale-out topologies.
const MaxCPUs = 4096

// CPUMask is a set of logical CPUs, the simulated analogue of the kernel's
// cpumask_t. The zero value is the empty set and allocates nothing; word
// storage grows lazily with the highest CPU ever set, so a mask costs
// O(highest/64) space and iteration costs O(active words) via the summary
// level (bit i of summary is set iff word i is non-empty) rather than
// O(NumCPUs). CPU ids must lie in [0, MaxCPUs); Set, Clear, Has and MaskOf
// panic otherwise instead of silently corrupting a neighbouring word.
//
// Mutating methods (Set, Clear, Reset) have reference semantics: a mask
// assigned or passed by value shares its word storage with the original, so
// callers must only mutate masks they own (freshly built, or obtained via
// Clone). All value-returning operators (And, Or, AndNot, Clone) return
// masks with fresh storage.
type CPUMask struct {
	w       []uint64
	summary uint64 // bit i set iff w[i] != 0
}

// checkCPU panics when cpu is outside the representable range. Indexing
// with an unchecked id used to walk off the old fixed [2]uint64 array for
// CPU >= 128; the explicit check turns that silent corruption into a
// loud programming-error panic.
func checkCPU(cpu CPU) {
	if cpu < 0 || int(cpu) >= MaxCPUs {
		panic(fmt.Sprintf("mach: CPU %d out of range [0,%d)", int(cpu), MaxCPUs))
	}
}

// MaskOf returns a mask containing exactly the given CPUs.
func MaskOf(cpus ...CPU) CPUMask {
	var m CPUMask
	for _, c := range cpus {
		m.Set(c)
	}
	return m
}

// NewCPUMask returns an empty mask whose word storage is preallocated for
// CPUs in [0, capacity), so subsequent Sets below capacity never allocate.
// Capacity is clamped to [0, MaxCPUs].
func NewCPUMask(capacity int) CPUMask {
	if capacity < 0 {
		capacity = 0
	}
	if capacity > MaxCPUs {
		capacity = MaxCPUs
	}
	return CPUMask{w: make([]uint64, (capacity+63)/64)}
}

// Set adds cpu to the mask, growing word storage as needed.
func (m *CPUMask) Set(cpu CPU) {
	checkCPU(cpu)
	wi := int(cpu) / 64
	if wi >= len(m.w) {
		grown := make([]uint64, wi+1)
		copy(grown, m.w)
		m.w = grown
	}
	m.w[wi] |= 1 << (uint(cpu) % 64)
	m.summary |= 1 << uint(wi)
}

// Clear removes cpu from the mask.
func (m *CPUMask) Clear(cpu CPU) {
	checkCPU(cpu)
	wi := int(cpu) / 64
	if wi >= len(m.w) {
		return
	}
	m.w[wi] &^= 1 << (uint(cpu) % 64)
	if m.w[wi] == 0 {
		m.summary &^= 1 << uint(wi)
	}
}

// Reset empties the mask in place. It keeps the word storage, so later Sets
// below the mask's current capacity do not allocate.
func (m *CPUMask) Reset() {
	for s := m.summary; s != 0; s &^= s & -s {
		m.w[bits.TrailingZeros64(s)] = 0
	}
	m.summary = 0
}

// Has reports whether cpu is in the mask.
func (m CPUMask) Has(cpu CPU) bool {
	checkCPU(cpu)
	wi := int(cpu) / 64
	return wi < len(m.w) && m.w[wi]&(1<<(uint(cpu)%64)) != 0
}

// Count returns the number of CPUs in the mask.
func (m CPUMask) Count() int {
	n := 0
	for s := m.summary; s != 0; s &^= s & -s {
		n += bits.OnesCount64(m.w[bits.TrailingZeros64(s)])
	}
	return n
}

// Empty reports whether the mask contains no CPUs.
func (m CPUMask) Empty() bool { return m.summary == 0 }

// Clone returns a copy of m with its own word storage.
func (m CPUMask) Clone() CPUMask {
	if len(m.w) == 0 {
		return CPUMask{}
	}
	c := CPUMask{w: make([]uint64, len(m.w)), summary: m.summary}
	copy(c.w, m.w)
	return c
}

// Equal reports whether m and o contain the same CPUs.
func (m CPUMask) Equal(o CPUMask) bool {
	if m.summary != o.summary {
		return false
	}
	for s := m.summary; s != 0; s &^= s & -s {
		wi := bits.TrailingZeros64(s)
		if m.w[wi] != o.w[wi] {
			return false
		}
	}
	return true
}

// And returns the intersection of m and o.
func (m CPUMask) And(o CPUMask) CPUMask {
	n := len(m.w)
	if len(o.w) < n {
		n = len(o.w)
	}
	out := CPUMask{}
	if n == 0 {
		return out
	}
	out.w = make([]uint64, n)
	for s := m.summary & o.summary; s != 0; s &^= s & -s {
		wi := bits.TrailingZeros64(s)
		if w := m.w[wi] & o.w[wi]; w != 0 {
			out.w[wi] = w
			out.summary |= 1 << uint(wi)
		}
	}
	return out
}

// Or returns the union of m and o.
func (m CPUMask) Or(o CPUMask) CPUMask {
	n := len(m.w)
	if len(o.w) > n {
		n = len(o.w)
	}
	out := CPUMask{}
	if n == 0 {
		return out
	}
	out.w = make([]uint64, n)
	copy(out.w, m.w)
	out.summary = m.summary
	for s := o.summary; s != 0; s &^= s & -s {
		wi := bits.TrailingZeros64(s)
		out.w[wi] |= o.w[wi]
		out.summary |= 1 << uint(wi)
	}
	return out
}

// AndNot returns the CPUs in m that are not in o.
func (m CPUMask) AndNot(o CPUMask) CPUMask {
	out := m.Clone()
	for s := m.summary & o.summary; s != 0; s &^= s & -s {
		wi := bits.TrailingZeros64(s)
		out.w[wi] &^= o.w[wi]
		if out.w[wi] == 0 {
			out.summary &^= 1 << uint(wi)
		}
	}
	return out
}

// AnyIn reports whether the mask holds a CPU with id in [lo, hi). It masks
// the range's first and last words and reads the words between them from
// the summary, so it costs O(1) and allocates nothing. Ids outside
// [0, MaxCPUs) are never members, so the range may extend past them.
func (m CPUMask) AnyIn(lo, hi CPU) bool {
	if lo < 0 {
		lo = 0
	}
	if top := CPU(len(m.w) * 64); hi > top {
		hi = top
	}
	if lo >= hi {
		return false
	}
	first, last := int(lo)/64, int(hi-1)/64
	head := ^uint64(0) << (uint(lo) % 64)      // ids >= lo in word first
	tail := ^uint64(0) >> (63 - uint(hi-1)%64) // ids < hi in word last
	if first == last {
		return m.w[first]&head&tail != 0
	}
	between := (uint64(1)<<uint(last) - 1) &^ (uint64(1)<<uint(first+1) - 1)
	return m.w[first]&head != 0 || m.w[last]&tail != 0 || m.summary&between != 0
}

// ForEach calls fn for each member of the mask in ascending order without
// allocating. Iteration touches only non-empty words (via the summary), so
// the cost is O(active), not O(NumCPUs).
func (m CPUMask) ForEach(fn func(CPU)) {
	for s := m.summary; s != 0; s &^= s & -s {
		wi := bits.TrailingZeros64(s)
		for w := m.w[wi]; w != 0; w &^= w & -w {
			fn(CPU(wi*64 + bits.TrailingZeros64(w)))
		}
	}
}

// CPUs returns the members of the mask in ascending order.
func (m CPUMask) CPUs() []CPU {
	cpus := make([]CPU, 0, m.Count())
	m.ForEach(func(c CPU) { cpus = append(cpus, c) })
	return cpus
}

// String renders the mask as a comma-separated CPU list, e.g. "{0,3,17}".
func (m CPUMask) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	m.ForEach(func(c CPU) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		sb.WriteString(strconv.Itoa(int(c)))
	})
	sb.WriteByte('}')
	return sb.String()
}
