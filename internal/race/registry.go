package race

import (
	"sort"
	"strings"
)

// The registry below is the contract between the dynamic happens-before
// checker and the static lockset tier (internal/sanitizer/ssa): every
// shared location the simulator instruments is declared here once, with
// the synchronization discipline the model relies on. The dynamic side
// checks sampled schedules against the discipline; the static side
// re-proves the same discipline over *all* schedules and fails the build
// when a registered field cannot be discharged (RACE_XVAL.txt).

// Synchronization disciplines a registered field may declare. The static
// lockset analyzer proves exactly the declared discipline; any mismatch
// (a plain access to an atomic field, a confined access with no owner
// check before it, an unguarded early ack on an ack-ordered field) is a
// finding.
const (
	// DiscAtomic: every access goes through the detector's Atomic* hooks
	// (C11 atomics / READ_ONCE–WRITE_ONCE in the modeled kernel).
	DiscAtomic = "atomic"
	// DiscConfined: plain accesses, legal because only the owning CPU's
	// run loop (and code it calls synchronously, including its IRQ
	// dispatch) ever touches the field. The accessors check it: each
	// first calls its owner type's owner check (kernel.CPU.checkOwner),
	// which panics when another proc runs it, and lockset requires that
	// call at every site.
	DiscConfined = "cpu-confined"
	// DiscAckOrdered: plain accesses ordered by the shootdown ack edge —
	// the initiator may write only after every responder acked, and a
	// responder may read only before its ack, so the ack join is the
	// happens-before edge. Early acks must be provably suppressed while
	// the guard field is set.
	DiscAckOrdered = "ack-ordered"
	// DiscEpoch: a plain field with exactly one writing function
	// module-wide; readers either poll it as a racy-by-design predicate
	// or order through the accompanying sync hand-off.
	DiscEpoch = "single-writer-epoch"
)

// Field describes one instrumented shared location: how its dynamic
// variable names are formed, which Go field backs it, and the
// synchronization discipline the static tier must discharge.
type Field struct {
	// Key is the stable report identifier ("mm.tlb_gen").
	Key string
	// Var is the dynamic variable-name pattern; %d matches a decimal
	// index (mm ID, CPU number). Empty for fields with no detector
	// variable (discipline proven structurally, e.g. DiscEpoch).
	Var string
	// Owner is the module-relative directory of the owning package.
	Owner string
	// Struct is the owning struct type within Owner.
	Struct string
	// GoField is the backing Go field; empty when the location is
	// virtual (e.g. page-table nodes as a whole).
	GoField string
	// NameField is the Owner struct field holding the detector name,
	// stored when the object is built or a detector attaches;
	// instrumentation sites pass it to the detector, which is how the
	// static tier maps a call site back to this entry.
	NameField string
	// Discipline is one of the Disc* constants.
	Discipline string
	// Guard/GuardStruct name the payload field gating DiscAckOrdered
	// accesses (accesses only happen when the guard is set, so the ack
	// edge must be strict whenever it is).
	Guard, GuardStruct string
	// SeededBy names the internal/fault Mutant constant
	// (MutantEarlyAck) that plants the deliberately broken variant
	// whose violation the static tier must rediscover (as a witness, not
	// a finding) to stay cross-validated with the dynamic catch. The
	// seeded site is the unit comparing a field of the enum's type with
	// exactly this constant.
	SeededBy string
	// Doc is the one-line discipline rationale, published in RACE_XVAL.
	Doc string
}

// Registry lists every instrumented shared location. Order is the
// canonical report order (RACE_XVAL.txt rows).
func Registry() []Field {
	return []Field{
		{Key: "cpu.batched", Var: "cpu%d.batched", Owner: "internal/kernel", Struct: "CPU",
			GoField: "batched", NameField: "batchedVar", Discipline: DiscAtomic,
			Doc: "batched-syscall flag, READ_ONCE/WRITE_ONCE"},
		{Key: "cpu.batchq", Var: "cpu%d.batchq", Owner: "internal/kernel", Struct: "CPU",
			GoField: "pendingBatched", NameField: "batchqVar", Discipline: DiscAtomic,
			Doc: "deferred-flush queue, llist-style RMW hand-off"},
		{Key: "cpu.lazy", Var: "cpu%d.lazy", Owner: "internal/kernel", Struct: "CPU",
			GoField: "lazy", NameField: "lazyVar", Discipline: DiscAtomic,
			Doc: "lazy-TLB indication, READ_ONCE/WRITE_ONCE"},
		{Key: "cpu.lazyq", Var: "cpu%d.lazyq", Owner: "internal/kernel", Struct: "CPU",
			GoField: "lazyWork", NameField: "lazyqVar", Discipline: DiscAtomic,
			Doc: "lazy-switch work queue, llist-style RMW hand-off"},
		{Key: "cpu.runq", Var: "cpu%d.runq", Owner: "internal/kernel", Struct: "CPU",
			GoField: "runq", NameField: "runqVar", Discipline: DiscAtomic,
			Doc: "run queue, RMW hand-off plus per-task sync edge"},
		{Key: "cpu.tlbgen", Var: "cpu%d.tlbgen", Owner: "internal/kernel", Struct: "CPU",
			GoField: "localGen", NameField: "genVar", Discipline: DiscConfined,
			Doc: "per-CPU TLB generation, touched only by the owning run loop"},
		{Key: "mm.cpumask", Var: "mm%d.cpumask", Owner: "internal/mm", Struct: "AddressSpace",
			GoField: "activeMask", NameField: "maskVar", Discipline: DiscAtomic,
			Doc: "mm_cpumask, atomic set/clear/scan"},
		{Key: "mm.pt-nodes", Var: "mm%d.pt-nodes", Owner: "internal/core", Struct: "Flusher",
			Discipline: DiscAckOrdered, Guard: "FreedTables", GuardStruct: "FlushInfo",
			SeededBy: "MutantEarlyAck",
			Doc:      "freed page-table pages (§3.2): responders read pre-ack, the initiator reclaims post-ack; early ack must be off while FreedTables is set"},
		{Key: "mm.pte", Var: "mm%d.pte", Owner: "internal/pagetable", Struct: "Table",
			NameField: "pteVar", Discipline: DiscAtomic,
			Doc: "leaf PTEs, native_set_pte-style atomic stores"},
		{Key: "mm.tlb_gen", Var: "mm%d.tlb_gen", Owner: "internal/mm", Struct: "AddressSpace",
			GoField: "tlbGen", NameField: "genVar", Discipline: DiscAtomic,
			Doc: "mm->context.tlb_gen, atomic_inc/atomic64_read"},
		{Key: "smp.acked", Owner: "internal/smp", Struct: "Request",
			GoField: "acked", Discipline: DiscEpoch,
			Doc: "per-request ack word: single store site, polled racy-by-design with the hand-off ordered via the request sync"},
		{Key: "smp.csq", Var: "csq[%d]", Owner: "internal/smp", Struct: "perCPU",
			GoField: "queue", NameField: "csqVar", Discipline: DiscAtomic,
			Doc: "call-single queue, llist_add/llist_del_all RMW hand-off"},
		{Key: "smp.faback", Var: "faback[%d]", Owner: "internal/smp", Struct: "fabricCPU",
			GoField: "fabAckSeq", NameField: "ackVar", Discipline: DiscAtomic,
			Doc: "async fabric acked sequence: responder stores after the batch drain, watchdog/completion load for the generation-gap check"},
		{Key: "smp.fabfull", Var: "fabfull[%d]", Owner: "internal/smp", Struct: "fabricCPU",
			GoField: "fabFlushAll", NameField: "fullVar", Discipline: DiscAtomic,
			Doc: "async fabric flush_all collapse flag, RMW on overflow/degrade, cleared by the drain's ring pop"},
		{Key: "smp.fabpost", Var: "fabpost[%d]", Owner: "internal/smp", Struct: "fabricCPU",
			GoField: "fabPostSeq", NameField: "postVar", Discipline: DiscAtomic,
			Doc: "async fabric posted sequence, bumped by the initiator's post RMW, loaded by the drain's ack"},
		{Key: "smp.fabring", Var: "fabring[%d]", Owner: "internal/smp", Struct: "fabricCPU",
			GoField: "fabRing", NameField: "ringVar", Discipline: DiscAtomic,
			Doc: "async fabric invalidation ring, llist-style post RMW / drain del_all hand-off"},
	}
}

// MatchVar reports whether a concrete dynamic variable name matches the
// entry's pattern; each %d in the pattern matches one or more digits.
func (f Field) MatchVar(name string) bool {
	if f.Var == "" {
		return false
	}
	pat, s := f.Var, name
	for {
		i := strings.Index(pat, "%d")
		if i < 0 {
			return pat == s
		}
		if !strings.HasPrefix(s, pat[:i]) {
			return false
		}
		s = s[i:]
		j := 0
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j == 0 {
			return false
		}
		pat, s = pat[i+2:], s[j:]
	}
}

// LookupVar resolves a concrete dynamic variable name (or a pattern
// literal such as "mm%d.pt-nodes") to its registry entry.
func LookupVar(name string) (Field, bool) {
	for _, f := range Registry() {
		if f.Var != "" && (f.Var == name || f.MatchVar(name)) {
			return f, true
		}
	}
	return Field{}, false
}

// VarNames returns the names of every variable the detector has seen, in
// creation-independent sorted order; the registry cross-check test walks
// it to assert no instrumentation site escaped the registry.
func (d *Detector) VarNames() []string {
	if d == nil {
		return nil
	}
	out := make([]string, 0, len(d.vars))
	for name := range d.vars {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
