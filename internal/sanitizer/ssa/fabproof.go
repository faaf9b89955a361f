package ssa

// fabproof is the numeric prover for the asynchronous shootdown fabric:
// where lockset proves the fabric's *ordering* story (ack edges,
// confinement), fabproof proves the *arithmetic* its safety rests on,
// using the difference-bound engine in absint.go. The obligations:
//
//   - fab.ring-bound: every append to a per-CPU invalidation ring
//     happens under a provable length bound no larger than the declared
//     ring capacity — a post can never grow a ring unboundedly.
//   - fab.ring-overflow: from every posted-sequence increment, all
//     paths land the post before returning: a ring append, a coalescing
//     merge, or the full-flush collapse. No sequence is ever acked for
//     an invalidation that was silently dropped.
//   - fab.seq-mono / fab.ack-mono / fab.gen-mono: the posted sequence,
//     the acked sequence, and the mm TLB generation are monotone
//     non-decreasing at every store site; the ack additionally stores
//     only drain-time snapshots of the posted sequence, which gives
//     ack ≤ posted compositionally.
//   - fab.retry-cap: watchdog retry counters stay under the declared
//     re-kick cap, so the degrade-to-full ladder terminates.
//   - fab.coalesce: coalescing soundness as interval containment — on
//     every feasible path of the merge function, under each disjunct of
//     the guard predicate's true-return postcondition, the merged entry
//     either goes full or keeps [min(Start), max(End)), covering both
//     inputs. The config-seeded fault.MutantCoalesceShrink variant fails
//     this proof on exactly one path, recorded as a witness (the static
//     half of the cross-validation contract; the shadow-TLB oracle is the
//     dynamic half). The merge function is seeded by type and constant
//     (comparesSeed, the rule lockset uses).
//   - fab.callback-once: the batch completion callback fires only with
//     the done latch provably set, the latch is never cleared, and a
//     batch is registered for completion at most once — the callback
//     fires exactly once per batch, including the zero-target and
//     FreedTables synchronous fallback paths.
//   - fab.freed-fallback: every call of the async post function is
//     dominated by a freed-tables-clear fact, locally or (one caller
//     level up) at every call site of the enclosing function — flushes
//     that free page tables provably stay on the synchronous ack path.
//   - fab.inval-wf: every ring-entry literal is well-formed: full, or
//     GenLo ≤ GenHi (missing elements are zero).
//
// The fabric is bound by the names the code declares (fabDecl), each
// resolved exactly in the package that declares the per-CPU ring type,
// as lockset binds its subjects through the race registry's names.
// internal/smp must declare every name; a fixture package declaring the
// ring type must declare at least its four ring fields. A name that does
// not resolve is a finding, so a rename fails the tier instead of
// dropping rows. An obligation the engine cannot discharge is a finding
// too. The per-obligation rows (proven/unproven) form the FABPROOF
// artifact CI fails on, mirroring RACE_XVAL.

import (
	"fmt"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// FabRow is one line of the FABPROOF cross-validation report: a fabric
// obligation and its static proof status.
type FabRow struct {
	// Key is the obligation id ("fab.ring-bound", ...).
	Key string
	// Subject names the proven entity ("smp.fabricCPU.fabRing").
	Subject string
	// Property is the one-line obligation statement.
	Property string
	// Status is "proven" or "unproven" (an undischarged finding; CI
	// fails).
	Status string
	// Detail is the one-line proof summary.
	Detail string
}

// fabResult carries the fabproof analyzer's extra outputs to Result.
type fabResult struct {
	witnesses []Finding
	rows      []FabRow
}

// Obligation keys, in pinned report order.
const (
	fabRingBound    = "fab.ring-bound"
	fabRingOverflow = "fab.ring-overflow"
	fabSeqMono      = "fab.seq-mono"
	fabAckMono      = "fab.ack-mono"
	fabGenMono      = "fab.gen-mono"
	fabRetryCap     = "fab.retry-cap"
	fabCoalesce     = "fab.coalesce"
	fabCallbackOnce = "fab.callback-once"
	fabFreedFall    = "fab.freed-fallback"
	fabInvalWF      = "fab.inval-wf"
)

// fabSeed names the mutant constant (internal/fault) whose coverage
// loss fab.coalesce must witness exactly once.
const fabSeed = "MutantCoalesceShrink"

var fabProps = map[string]string{
	fabRingBound:    "ring appends stay under the declared capacity",
	fabRingOverflow: "every posted sequence lands: append, merge, or full-flush collapse",
	fabSeqMono:      "posted sequence is monotone non-decreasing",
	fabAckMono:      "acked sequence is a posted-sequence snapshot (ack ≤ posted)",
	fabGenMono:      "TLB generation is monotone non-decreasing",
	fabRetryCap:     "re-kick retries stay under the declared cap",
	fabCoalesce:     "merged entries cover both inputs (no invalidation lost)",
	fabCallbackOnce: "completion callback fires exactly once per batch",
	fabFreedFall:    "freed-tables flushes stay on the synchronous path",
	fabInvalWF:      "ring entry literals are well-formed (GenLo ≤ GenHi or full)",
}

// fabDecl is the async fabric as internal/smp declares it: the names
// fabproof proves its obligations about, and no others.
var fabDecl = struct {
	// owner is the per-CPU ring type; ring, postSeq, ackSeq and full its
	// ring fields, the ones every package declaring owner must declare.
	owner, ring, postSeq, ackSeq, full string
	// The ring entry's fields (its type is the ring's element type).
	start, end, genLo, genHi, entryFull string
	// ringCap and retryCap are the declared capacity and re-kick cap.
	ringCap, retryCap string
	// batch is the completion record: its callback, done latch and
	// watchdog retry counter.
	batch, cb, done, retries string
	// merge folds one entry into another in-ring; guard decides whether
	// merge applies; post owns the posted-sequence increment.
	merge, guard, post string
	// gen is mm's TLB generation counter, which the entries carry.
	genPkg, genOwner, genField string
	// freed is the flush field whose clear fact keeps a post legal.
	freed string
}{
	owner: "fabricCPU", ring: "fabRing", postSeq: "fabPostSeq", ackSeq: "fabAckSeq", full: "fabFlushAll",
	start: "Start", end: "End", genLo: "GenLo", genHi: "GenHi", entryFull: "Full",
	ringCap: "RingSize", retryCap: "MaxKickRetries",
	batch: "AsyncBatch", cb: "onComplete", done: "done", retries: "retries",
	merge: "mergeInval", guard: "canCoalesce", post: "PostAsync",
	genPkg: "mm", genOwner: "AddressSpace", genField: "tlbGen",
	freed: "FreedTables",
}

// fabAnchor locates findings that have no source position of their own.
const fabAnchor = "internal/smp/fabric.go"

// fabric is fabDecl bound in one package. A nil field is a name the
// package does not declare.
type fabric struct {
	pkg                         *Package
	ring, postSeq, ackSeq, full *types.Var
	// elem is the ring's element type and its fields.
	elem                                               *types.Named
	elemStart, elemEnd, elemGenLo, elemGenHi, elemFull *types.Var
	// ringCap and retryCap are the declared caps (0 when absent).
	ringCap, retryCap  int64
	merge, guard, post *Func
	batch              *types.Named
	cb, done, retries  *types.Var
	genField           *types.Var
	// seed is fabSeed's constant when merge compares a field with it:
	// its coverage loss must surface as exactly one witness.
	seed *types.Const
}

func (fb *fabric) subject(prop string) string {
	d, pkg := fabDecl, fb.pkg.Types.Name()+"."
	switch prop {
	case fabSeqMono:
		return pkg + d.owner + "." + d.postSeq
	case fabAckMono:
		return pkg + d.owner + "." + d.ackSeq
	case fabGenMono:
		return d.genPkg + "." + d.genOwner + "." + d.genField
	case fabRetryCap:
		return pkg + d.batch + "." + d.retries
	case fabCoalesce:
		if fb.merge != nil {
			return funcIdent(fb.merge.Decl)
		}
		return pkg + d.merge
	case fabCallbackOnce:
		return pkg + d.batch + "." + d.cb
	case fabFreedFall:
		if fb.post != nil {
			return funcIdent(fb.post.Decl)
		}
		return pkg + d.post
	case fabInvalWF:
		return pkg + fb.elem.Obj().Name()
	}
	return pkg + d.owner + "." + d.ring
}

// fabOb is one obligation bound to a store or call event.
type fabOb struct {
	kind    int
	in      *Instr
	call    *Value
	doneKey string // for callback calls through a stored parameter
}

const (
	obRingBound = iota
	obSeqMono
	obAckMono
	obRetryCap
	obGenMono
	obCallbackFire
	obFreedCall
)

// fabCounts accumulates the per-fabric proof summary for row details.
type fabCounts struct {
	appends      int
	appendMax    int64
	seqStores    int
	ackSnapshots int
	ackNumeric   int
	genStores    int
	retryStores  int
	retryMax     int64
	paths        int
	witnessed    bool
	cbFires      int
	postSites    int
	postLocal    int
	postCallers  int
	composites   int
	batchAppends int
}

type fabAnalysis struct {
	ctx  *modCtx
	prog *Program
	sums *absSummaries

	findings  []Finding
	witnesses []Finding
	rows      []FabRow
	reported  map[string]bool
	rowBad    map[string]bool

	// freedNeed collects post-call sites whose enclosing unit could not
	// prove the freed-clear fact locally (phase-two caller propagation).
	freedNeed map[*Func][]token.Pos
}

func checkFabproof(ctx *modCtx) []Finding {
	fa := &fabAnalysis{
		ctx: ctx, prog: ctx.program(),
		reported: make(map[string]bool),
		rowBad:   make(map[string]bool),
	}
	fa.sums = newAbsSummaries(fa.prog)
	visited := 0
	fa.prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			visited++
		}
	})
	ctx.visited["fabproof"] = visited
	seed := ctx.seedConst(fabSeed)
	for _, fb := range fa.bindFabrics() {
		if fb.merge != nil && comparesSeed(fb.merge, seed) {
			fb.seed = seed
		}
		fa.checkFabric(fb)
	}
	ctx.fabRes = &fabResult{witnesses: fa.witnesses, rows: fa.rows}
	sortFindings(fa.findings)
	sortFindings(fa.witnesses)
	return fa.findings
}

// --- binding ---

// bindFabrics binds fabDecl in every package that declares its owner
// type, and reports each name such a package must declare but does not,
// at the owner's declaration.
func (fa *fabAnalysis) bindFabrics() []*fabric {
	var out []*fabric
	for _, p := range fa.ctx.pkgs {
		tn, _ := p.Types.Scope().Lookup(fabDecl.owner).(*types.TypeName)
		if tn == nil {
			if p.Path == smpPkg {
				fa.report(fabAnchor, 1, fmt.Sprintf(unresolvedMsg, p.Types.Name()+"."+fabDecl.owner))
			}
			continue
		}
		fb, missing := fa.bindFabric(p)
		_, file := p.FileOf(tn.Pos())
		for _, name := range missing {
			fa.report(file, fa.ctx.m.Fset.Position(tn.Pos()).Line, fmt.Sprintf(unresolvedMsg, name))
		}
		if fb != nil {
			out = append(out, fb)
		}
	}
	return out
}

const unresolvedMsg = "declared fabric name %s does not resolve: fabproof binds the fabric by these names, so the obligations on it go unproven"

// bindFabric resolves fabDecl in p, which declares the owner type, and
// returns the names p must declare but does not: every name in
// internal/smp, the four ring fields and a named entry type elsewhere.
// Without the ring fields or the entry type, p binds no fabric.
func (fa *fabAnalysis) bindFabric(p *Package) (*fabric, []string) {
	d, q := fabDecl, p.Types.Name()+"."
	var missing []string
	need := func(found, required bool, name string) {
		if !found && (required || p.Path == smpPkg) {
			missing = append(missing, name)
		}
	}
	field := func(typ, name string, required bool) *types.Var {
		v := declField(p, typ, name)
		need(v != nil, required, q+typ+"."+name)
		return v
	}
	cnst := func(name string) int64 {
		c := declConst(p, name)
		need(c != nil, false, q+name)
		if c == nil {
			return 0
		}
		v, _ := constant.Int64Val(constant.ToInt(c.Val()))
		return v
	}
	// A function resolves to the one function or method p declares
	// under its name.
	fn := func(name string) (out *Func) {
		n := 0
		for _, f := range fa.prog.Funcs {
			if f.Decl.Pkg.Path == p.Path && f.Decl.Obj.Name() == name {
				out, n = f, n+1
			}
		}
		need(n == 1, false, q+name)
		if n != 1 {
			return nil
		}
		return out
	}
	fb := &fabric{pkg: p, ringCap: cnst(d.ringCap), retryCap: cnst(d.retryCap)}
	fb.ring, fb.postSeq = field(d.owner, d.ring, true), field(d.owner, d.postSeq, true)
	fb.ackSeq, fb.full = field(d.owner, d.ackSeq, true), field(d.owner, d.full, true)
	fb.merge, fb.guard, fb.post = fn(d.merge), fn(d.guard), fn(d.post)
	fb.genField = declField(fa.ctx.m.Lookup(modPath+"/internal/"+d.genPkg), d.genOwner, d.genField)
	need(fb.genField != nil, false, d.genPkg+"."+d.genOwner+"."+d.genField)
	if bt, _ := p.Types.Scope().Lookup(d.batch).(*types.TypeName); bt != nil {
		fb.batch = namedType(bt.Type())
		fb.cb, fb.done, fb.retries = field(d.batch, d.cb, false), field(d.batch, d.done, false), field(d.batch, d.retries, false)
	} else {
		need(false, false, q+d.batch)
	}
	if fb.ring == nil {
		return nil, missing
	}
	if sl, ok := fb.ring.Type().Underlying().(*types.Slice); ok {
		fb.elem = namedType(sl.Elem())
	}
	need(fb.elem != nil, true, q+d.owner+"."+d.ring+"'s named entry type")
	if fb.elem == nil || fb.postSeq == nil || fb.ackSeq == nil || fb.full == nil {
		return nil, missing
	}
	en := fb.elem.Obj().Name()
	fb.elemStart, fb.elemEnd = field(en, d.start, false), field(en, d.end, false)
	fb.elemGenLo, fb.elemGenHi = field(en, d.genLo, false), field(en, d.genHi, false)
	fb.elemFull = field(en, d.entryFull, false)
	return fb, missing
}

// --- obligation scan and per-unit numeric runs ---

func (fa *fabAnalysis) checkFabric(fb *fabric) {
	c := &fabCounts{}
	fa.freedNeed = make(map[*Func][]token.Pos)
	units, obs := fa.scanObligations(fb, c)
	for _, f := range units {
		fa.runUnit(fb, f, obs[f], c)
	}
	for _, f := range units {
		for _, ob := range obs[f] {
			if ob.kind == obSeqMono {
				fa.checkOverflow(fb, f, ob.in)
			}
		}
	}
	fa.checkFreedPropagation(fb, c)
	fa.checkCoalesce(fb, c)
	fa.checkInvalWF(fb, c)
	if fb.batch != nil && c.batchAppends > 1 {
		fa.problem(fb, fabCallbackOnce, fb.post, unitPos(fb.post),
			"batch registered for completion at %d append sites: a batch reachable from the completion list twice fires its callback twice", c.batchAppends)
	}
	fa.appendRows(fb, c)
}

func (fa *fabAnalysis) scanObligations(fb *fabric, c *fabCounts) ([]*Func, map[*Func][]fabOb) {
	obs := make(map[*Func][]fabOb)
	var units []*Func
	add := func(f *Func, ob fabOb) {
		if len(obs[f]) == 0 {
			units = append(units, f)
		}
		obs[f] = append(obs[f], ob)
	}
	fa.prog.eachUnit(func(f *Func) {
		// Parameters stored into the callback field alias the callback:
		// calling them is a completion fire.
		aliasParams := map[int]string{}
		if fb.cb != nil {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Kind != IStore {
						continue
					}
					base, ok := fieldAddr(in, fb.cb)
					if !ok {
						continue
					}
					if pv := chase(in.Val); pv != nil && pv.Kind == VParam {
						if bk, ok2 := atomKey(chase(base)); ok2 && fb.done != nil {
							aliasParams[pv.ResIdx] = bk + "." + fb.done.Name()
						}
					}
				}
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore || in.Addr == nil {
					continue
				}
				a := chase(in.Addr)
				if a == nil || a.Kind != VFieldRead || a.Obj == nil {
					continue
				}
				switch a.Obj {
				case fb.ring:
					if isRingAppend(fb, in) {
						add(f, fabOb{kind: obRingBound, in: in})
					}
					if fb.batch != nil && isElemAppend(in, fb.batch) {
						c.batchAppends++
					}
				case fb.postSeq:
					add(f, fabOb{kind: obSeqMono, in: in})
				case fb.ackSeq:
					if ackSnapshot(fb, in) {
						c.ackSnapshots++
					} else {
						add(f, fabOb{kind: obAckMono, in: in})
					}
				case fb.retries:
					add(f, fabOb{kind: obRetryCap, in: in})
				case fb.genField:
					add(f, fabOb{kind: obGenMono, in: in})
				case fb.done:
					if bval, ok := storeConstBool(f, in); !ok || !bval {
						fa.problem(fb, fabCallbackOnce, f, in.Pos,
							"the done latch must only ever be set to true: clearing or conditionally storing it re-arms a completed batch, so its callback could fire twice")
					}
				default:
					if fb.batch != nil && isElemAppend(in, fb.batch) {
						c.batchAppends++
					}
				}
			}
			for _, call := range b.Calls {
				if fb.cb != nil && call.Callee == nil && call.Builtin == "" {
					if base := chase(call.Base); base != nil {
						if base.Kind == VFieldRead && base.Obj == fb.cb {
							add(f, fabOb{kind: obCallbackFire, call: call})
						} else if base.Kind == VParam {
							if dk, ok := aliasParams[base.ResIdx]; ok {
								add(f, fabOb{kind: obCallbackFire, call: call, doneKey: dk})
							}
						}
					}
				}
				if fb.post != nil && f != fb.post {
					for _, obj := range fa.prog.calleesOf(call) {
						if fa.prog.ByObj[obj] == fb.post {
							add(f, fabOb{kind: obFreedCall, call: call})
							break
						}
					}
				}
			}
		}
	})
	return units, obs
}

// isRingAppend matches `x.ring = append(x.ring, ...)`.
func isRingAppend(fb *fabric, in *Instr) bool {
	a := chase(in.Addr)
	if a == nil || a.Kind != VFieldRead || a.Obj != fb.ring {
		return false
	}
	v := chase(in.Val)
	if v == nil || v.Kind != VCall || v.Builtin != "append" || len(v.Args) < 1 {
		return false
	}
	av := chase(v.Args[0])
	return av != nil && av.Kind == VFieldRead && av.Obj == fb.ring && samePlace(av.Base, a.Base)
}

// isElemAppend reports whether in appends values of (pointer-to-) batch
// type — a completion-registration site.
func isElemAppend(in *Instr, batch *types.Named) bool {
	v := chase(in.Val)
	if v == nil || v.Kind != VCall || v.Builtin != "append" || len(v.Args) < 2 {
		return false
	}
	t := v.Args[1].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return namedType(t) == batch
}

// ackSnapshot recognizes the drain idiom `x.ack = snap` where snap is a
// read of the same fabric's posted sequence taken before the apply: the
// ack then inherits seq-mono's monotonicity and never exceeds a posted
// sequence.
func ackSnapshot(fb *fabric, in *Instr) bool {
	v := chase(in.Val)
	if v == nil || v.Kind != VFieldRead || v.Obj != fb.postSeq {
		return false
	}
	a := chase(in.Addr)
	return a != nil && a.Kind == VFieldRead && samePlace(a.Base, v.Base)
}

// runUnit runs the numeric engine once over f and discharges every
// obligation bound to its events.
func (fa *fabAnalysis) runUnit(fb *fabric, f *Func, obs []fabOb, c *fabCounts) {
	byStore := make(map[*Instr][]fabOb)
	byCall := make(map[*Value][]fabOb)
	for _, ob := range obs {
		if ob.in != nil {
			byStore[ob.in] = append(byStore[ob.in], ob)
		}
		if ob.call != nil {
			byCall[ob.call] = append(byCall[ob.call], ob)
		}
	}
	hooks := absHooks{
		store: func(e *absEnv, b *IRBlock, in *Instr) {
			for _, ob := range byStore[in] {
				fa.checkStoreOb(fb, f, e, ob, c)
			}
		},
		call: func(e *absEnv, b *IRBlock, call *Value) {
			for _, ob := range byCall[call] {
				fa.checkCallOb(fb, f, e, ob, c)
			}
		},
	}
	if !absAnalyze(f, fa.prog, fa.sums, hooks) {
		for _, ob := range obs {
			pos := unitPos(f)
			if ob.in != nil {
				pos = ob.in.Pos
			} else if ob.call != nil {
				pos = ob.call.Pos
			}
			fa.problem(fb, obKey(ob.kind), f, pos,
				"the numeric analysis of %s did not stabilize, so this obligation is unproven", f.Name())
		}
	}
}

func obKey(kind int) string {
	switch kind {
	case obRingBound:
		return fabRingBound
	case obSeqMono:
		return fabSeqMono
	case obAckMono:
		return fabAckMono
	case obRetryCap:
		return fabRetryCap
	case obGenMono:
		return fabGenMono
	case obCallbackFire:
		return fabCallbackOnce
	case obFreedCall:
		return fabFreedFall
	}
	return fabRingBound
}

func (fa *fabAnalysis) checkStoreOb(fb *fabric, f *Func, e *absEnv, ob fabOb, c *fabCounts) {
	if e.infeasible() {
		return
	}
	in := ob.in
	a := chase(in.Addr)
	key, _ := atomKey(a)
	switch ob.kind {
	case obRingBound:
		t := e.atom(key+"#len", nil)
		u := e.upper(t)
		if u >= absInf {
			fa.problem(fb, fabRingBound, f, in.Pos,
				"ring append without a provable length bound: the ring may grow past its capacity instead of collapsing to a full flush")
			return
		}
		if fb.ringCap > 0 && u+1 > fb.ringCap {
			fa.problem(fb, fabRingBound, f, in.Pos,
				"ring append under pre-append bound %d admits %d entries, past the declared ring capacity %d", u, u+1, fb.ringCap)
			return
		}
		c.appends++
		if u > c.appendMax {
			c.appendMax = u
		}
	case obSeqMono, obGenMono:
		old := e.atom(key, addrType(a))
		nt := e.termOf(f, chase(in.Val))
		if e.diff(old, nt) > 0 {
			what := "posted sequence"
			if ob.kind == obGenMono {
				what = "TLB generation"
			}
			fa.problem(fb, obKey(ob.kind), f, in.Pos,
				"%s store is not provably non-decreasing: a regressing counter breaks the generation/ack matching every drain relies on", what)
			return
		}
		if ob.kind == obSeqMono {
			c.seqStores++
		} else {
			c.genStores++
		}
	case obAckMono:
		old := e.atom(key, addrType(a))
		nt := e.termOf(f, chase(in.Val))
		if e.diff(old, nt) > 0 {
			fa.problem(fb, fabAckMono, f, in.Pos,
				"ack sequence store is neither a drain-time snapshot of the posted sequence nor provably non-decreasing: a regressing ack re-opens completed batches")
			return
		}
		c.ackNumeric++
	case obRetryCap:
		nt := e.termOf(f, chase(in.Val))
		u := e.upper(nt)
		if u >= absInf || (fb.retryCap > 0 && u > fb.retryCap) {
			fa.problem(fb, fabRetryCap, f, in.Pos,
				"retry counter store has no provable bound under the declared cap: the watchdog's degrade-to-full ladder may never terminate")
			return
		}
		c.retryStores++
		if u > c.retryMax {
			c.retryMax = u
		}
	}
}

func (fa *fabAnalysis) checkCallOb(fb *fabric, f *Func, e *absEnv, ob fabOb, c *fabCounts) {
	if e.infeasible() {
		return
	}
	switch ob.kind {
	case obCallbackFire:
		dk := ob.doneKey
		if dk == "" && fb.done != nil {
			if base := chase(ob.call.Base); base != nil && base.Kind == VFieldRead {
				if bk, ok := atomKey(chase(base.Base)); ok {
					dk = bk + "." + fb.done.Name()
				}
			}
		}
		if dk != "" {
			if t, bound := e.bind[dk]; bound && e.lower(t) >= 1 {
				c.cbFires++
				return
			}
		}
		fa.problem(fb, fabCallbackOnce, f, ob.call.Pos,
			"completion callback may fire without the done latch provably set: without the latch a batch can complete twice and double-close its flush window")
	case obFreedCall:
		c.postSites++
		if envProvesFreedClear(e) {
			c.postLocal++
			return
		}
		fa.freedNeed[f] = append(fa.freedNeed[f], ob.call.Pos)
	}
}

// envProvesFreedClear reports whether the path proves some freed-tables
// flag off: an upper bound ≤ 0 on an atom ending in the declared field.
func envProvesFreedClear(e *absEnv) bool {
	keys := make([]string, 0, len(e.bind))
	for k := range e.bind {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if strings.HasSuffix(k, "."+fabDecl.freed) && e.upper(e.bind[k]) <= 0 {
			return true
		}
	}
	return false
}

// checkFreedPropagation discharges post calls that lacked a local
// freed-clear fact: every caller of the enclosing function must prove it
// at its own call site (one level — deeper nesting needs a waiver).
func (fa *fabAnalysis) checkFreedPropagation(fb *fabric, c *fabCounts) {
	if len(fa.freedNeed) == 0 {
		return
	}
	var needy []*Func
	fa.prog.eachUnit(func(f *Func) {
		if _, ok := fa.freedNeed[f]; ok {
			needy = append(needy, f)
		}
	})
	for _, n := range needy {
		target := n
		for target.Lit != nil {
			// A literal's callers are not resolvable through the call
			// graph; anchor the proof at the enclosing declaration.
			target = fa.prog.ByObj[target.Decl.Obj]
			if target == nil {
				break
			}
		}
		var callerUnits []*Func
		callerCalls := make(map[*Func][]*Value)
		if target != nil {
			fa.prog.eachUnit(func(f *Func) {
				if f == target {
					return
				}
				for _, b := range f.Blocks {
					for _, call := range b.Calls {
						for _, obj := range fa.prog.calleesOf(call) {
							if fa.prog.ByObj[obj] == target {
								if len(callerCalls[f]) == 0 {
									callerUnits = append(callerUnits, f)
								}
								callerCalls[f] = append(callerCalls[f], call)
								break
							}
						}
					}
				}
			})
		}
		if len(callerUnits) == 0 {
			for _, pos := range fa.freedNeed[n] {
				fa.problem(fb, fabFreedFall, n, pos,
					"asynchronous post is not dominated by a freed-tables check and the enclosing function has no analyzable caller to supply one: a table-freeing flush must stay on the synchronous ack path")
			}
			continue
		}
		for _, cu := range callerUnits {
			calls := callerCalls[cu]
			inSet := make(map[*Value]bool, len(calls))
			for _, call := range calls {
				inSet[call] = true
			}
			unit := cu
			ok := absAnalyze(cu, fa.prog, fa.sums, absHooks{
				call: func(e *absEnv, b *IRBlock, call *Value) {
					if !inSet[call] || e.infeasible() {
						return
					}
					if envProvesFreedClear(e) {
						c.postCallers++
						return
					}
					fa.problem(fb, fabFreedFall, unit, call.Pos,
						"call into the asynchronous post path without a freed-tables-clear fact on this path: a flush that frees page tables would be posted to the fabric instead of the synchronous ack path")
				},
			})
			if !ok {
				fa.problem(fb, fabFreedFall, cu, unitPos(cu),
					"the numeric analysis of %s did not stabilize, so the freed-tables fallback obligation is unproven", cu.Name())
			}
		}
	}
}

// --- overflow coverage (CFG reachability) ---

// checkOverflow proves that from the posted-sequence increment, every
// path performs a ring append, a merge, or a full-flush collapse before
// leaving the function.
func (fa *fabAnalysis) checkOverflow(fb *fabric, f *Func, st *Instr) {
	type ev struct {
		in   *Instr
		call *Value
		pos  token.Pos
	}
	eventsOf := func(b *IRBlock) []ev {
		var evs []ev
		for _, call := range b.Calls {
			evs = append(evs, ev{call: call, pos: call.Pos})
		}
		for _, in := range b.Instrs {
			evs = append(evs, ev{in: in, pos: in.Pos})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
		return evs
	}
	isAction := func(x ev) bool {
		if x.in != nil && x.in.Kind == IStore {
			a := chase(x.in.Addr)
			if a != nil && a.Kind == VFieldRead {
				if a.Obj == fb.ring && isRingAppend(fb, x.in) {
					return true
				}
				if a.Obj == fb.full {
					if bval, ok := storeConstBool(f, x.in); ok && bval {
						return true
					}
				}
			}
		}
		if x.call != nil && fb.merge != nil {
			for _, obj := range fa.prog.calleesOf(x.call) {
				if fa.prog.ByObj[obj] == fb.merge {
					return true
				}
			}
		}
		return false
	}
	covered := func(evs []ev, from int) bool {
		for _, x := range evs[from:] {
			if isAction(x) {
				return true
			}
		}
		return false
	}
	var startB *IRBlock
	startIdx := -1
	for _, b := range f.Blocks {
		for i, x := range eventsOf(b) {
			if x.in == st {
				startB, startIdx = b, i
			}
		}
	}
	if startB == nil {
		return
	}
	if covered(eventsOf(startB), startIdx+1) {
		return
	}
	seen := map[*IRBlock]bool{startB: true}
	queue := append([]*IRBlock{}, startB.Succs...)
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		if seen[b] {
			continue
		}
		seen[b] = true
		if b == f.Exit {
			fa.problem(fb, fabRingOverflow, f, st.Pos,
				"a path from this posted-sequence increment leaves the function without a ring append, a merge, or the full-flush collapse: the target could ack a sequence whose invalidation was never queued")
			return
		}
		if covered(eventsOf(b), 0) {
			continue
		}
		queue = append(queue, b.Succs...)
	}
}

// --- coalescing soundness ---

// checkCoalesce proves the merge function sound per guard disjunct: at
// every feasible path end the merged element is full or its range
// contains both inputs' entry ranges.
func (fa *fabAnalysis) checkCoalesce(fb *fabric, c *fabCounts) {
	if fb.merge == nil {
		return
	}
	// merge(prev, next): prev is parameter 0, next parameter 1.
	p0, p1 := "p:0", "p:1"
	var ghost []string
	for _, fld := range []*types.Var{fb.elemStart, fb.elemEnd, fb.elemFull} {
		if fld == nil {
			continue
		}
		ghost = append(ghost, p0+"."+fld.Name(), p1+"."+fld.Name())
	}
	var seeds [][]absFact
	if fb.guard != nil {
		for _, d := range fa.sums.trueFacts(fb.guard) {
			var keep []absFact
			for _, fct := range d {
				if paramFact(fct.a) && paramFact(fct.b) {
					keep = append(keep, fct)
				}
			}
			seeds = append(seeds, keep)
		}
	}
	if len(seeds) == 0 {
		seeds = [][]absFact{nil}
	}
	witnessSeen := make(map[string]bool)
	for _, seed := range seeds {
		// Trivial self-facts materialize the entry (ghost) terms the
		// containment check compares the final state against.
		for _, g := range ghost {
			seed = append(seed, absFact{a: g, b: g, c: 0})
		}
		end := func(e *absEnv, pos token.Pos) {
			fa.checkMergeEnd(fb, e, pos, p0, p1, witnessSeen, c)
		}
		ok := absAnalyze(fb.merge, fa.prog, fa.sums, absHooks{
			seed: seed,
			ret: func(e *absEnv, b *IRBlock, in *Instr) {
				end(e, in.Pos)
			},
			blockNd: func(e *absEnv, b *IRBlock) {
				if b == fb.merge.Exit {
					return
				}
				exitSucc, hasRet := false, false
				for _, s := range b.Succs {
					if s == fb.merge.Exit {
						exitSucc = true
					}
				}
				for _, in := range b.Instrs {
					if in.Kind == IReturn {
						hasRet = true
					}
				}
				if exitSucc && !hasRet {
					end(e, blockPos(b, fb.merge))
				}
			},
		})
		if !ok {
			fa.problem(fb, fabCoalesce, fb.merge, unitPos(fb.merge),
				"the numeric analysis of the merge function did not stabilize, so coalescing soundness is unproven")
		}
	}
	if fb.seed != nil && len(witnessSeen) != 1 {
		fa.problem(fb, fabCoalesce, fb.merge, unitPos(fb.merge),
			"seeded violation miscount: expected the %s variant to surface exactly one coverage-loss witness, got %d — the static and dynamic tiers no longer agree on the seeded bug", fb.seed.Name(), len(witnessSeen))
	}
	c.witnessed = len(witnessSeen) == 1
}

func paramFact(a string) bool {
	return a == "" || strings.HasPrefix(a, "p:")
}

func (fa *fabAnalysis) checkMergeEnd(fb *fabric, e *absEnv, pos token.Pos, p0, p1 string, witnessSeen map[string]bool, c *fabCounts) {
	if e.infeasible() {
		return
	}
	if fb.elemFull != nil {
		if t, ok := e.bind[p0+"."+fb.elemFull.Name()]; ok && e.lower(t) >= 1 {
			c.paths++
			return
		}
	}
	if fb.elemStart != nil && fb.elemEnd != nil {
		sName, eName := fb.elemStart.Name(), fb.elemEnd.Name()
		curS := e.atom(p0+"."+sName, nil)
		curE := e.atom(p0+"."+eName, nil)
		entS0, ok1 := e.dom.atomT["|"+p0+"."+sName]
		entS1, ok2 := e.dom.atomT["|"+p1+"."+sName]
		entE0, ok3 := e.dom.atomT["|"+p0+"."+eName]
		entE1, ok4 := e.dom.atomT["|"+p1+"."+eName]
		if ok1 && ok2 && ok3 && ok4 &&
			e.diff(curS, entS0) <= 0 && e.diff(curS, entS1) <= 0 &&
			e.diff(entE0, curE) <= 0 && e.diff(entE1, curE) <= 0 {
			c.paths++
			return
		}
	}
	file, line := fa.ctx.posLine(fb.merge.Decl, pos)
	if fb.seed != nil {
		key := fmt.Sprintf("%s:%d", file, line)
		if !witnessSeen[key] {
			witnessSeen[key] = true
			fa.witnesses = append(fa.witnesses, Finding{
				File: file, Line: line, Analyzer: "fabproof",
				Msg: fmt.Sprintf("coalesce coverage loss seeded by the config-planted %s variant: the merged ring entry adopts the newer end and stops covering the older entry's tail — the exact shrink the shadow-TLB oracle convicts as a stale translation", fb.seed.Name()),
			})
		}
		return
	}
	fa.problem(fb, fabCoalesce, fb.merge, pos,
		"coalesce merge may lose coverage: on this feasible path the merged entry is neither provably full nor provably spanning both inputs' ranges, so a drained target would skip invalidations the initiator believes posted")
}

// --- entry literal well-formedness ---

func (fa *fabAnalysis) checkInvalWF(fb *fabric, c *fabCounts) {
	fa.prog.eachUnit(func(f *Func) {
		for _, v := range f.Values() {
			if v.Kind != VComposite || namedType(v.Type) != fb.elem {
				continue
			}
			c.composites++
			fa.checkElemComposite(fb, f, v)
		}
	})
}

func (fa *fabAnalysis) checkElemComposite(fb *fabric, f *Func, v *Value) {
	elt := func(field *types.Var) *Value {
		if field == nil {
			return nil
		}
		return v.field(field.Name())
	}
	if fv := elt(fb.elemFull); fv != nil {
		if cb, ok := constInt(chase(fv)); ok && cb != 0 {
			return // a full entry's range and generations are vacuous
		}
	}
	lo, hi := elt(fb.elemGenLo), elt(fb.elemGenHi)
	bad := func() {
		fa.problem(fb, fabInvalWF, f, v.Pos,
			"ring entry literal with an ill-formed generation run (GenLo not provably ≤ GenHi): a drain applying it would advance the target's generation past changes it never flushed")
	}
	switch {
	case lo == nil:
		// zero GenLo is ≤ any unsigned GenHi
	case hi == nil:
		if cv, ok := constInt(chase(lo)); !ok || cv != 0 {
			bad()
		}
	case samePlace(lo, hi):
		// identical generation expressions: a single-generation run
	default:
		cl, okl := constInt(chase(lo))
		ch, okh := constInt(chase(hi))
		if !okl || !okh || cl > ch {
			bad()
		}
	}
}

// --- reporting ---

func unitPos(f *Func) token.Pos {
	if f == nil {
		return token.NoPos
	}
	if f.Lit != nil {
		return f.Lit.Pos()
	}
	return f.Decl.Decl.Name.Pos()
}

func blockPos(b *IRBlock, f *Func) token.Pos {
	pos := token.NoPos
	for _, in := range b.Instrs {
		if in.Pos > pos {
			pos = in.Pos
		}
	}
	for _, call := range b.Calls {
		if call.Pos > pos {
			pos = call.Pos
		}
	}
	if !pos.IsValid() {
		return unitPos(f)
	}
	return pos
}

// problem records one obligation failure as a finding and marks its row.
func (fa *fabAnalysis) problem(fb *fabric, prop string, f *Func, pos token.Pos, format string, args ...any) {
	file, line := fabAnchor, 1
	if f != nil && pos.IsValid() {
		file, line = fa.ctx.posLine(f.Decl, pos)
	}
	fa.rowBad[prop+"|"+fb.subject(prop)] = true
	fa.report(file, line, fmt.Sprintf(format, args...))
}

// report records one finding, once per file, line and message.
func (fa *fabAnalysis) report(file string, line int, msg string) {
	key := fmt.Sprintf("%s:%d:%s", file, line, msg)
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	fa.findings = append(fa.findings, Finding{
		File: file, Line: line, Analyzer: "fabproof", Msg: msg,
	})
}

func (fa *fabAnalysis) appendRows(fb *fabric, c *fabCounts) {
	add := func(prop, detail string) {
		subject := fb.subject(prop)
		rk := prop + "|" + subject
		status := "proven"
		if fa.rowBad[rk] {
			status = "unproven"
		}
		fa.rows = append(fa.rows, FabRow{
			Key: prop, Subject: subject, Property: fabProps[prop],
			Status: status, Detail: detail,
		})
	}
	capNote := ""
	if fb.ringCap > 0 && c.appendMax+1 == fb.ringCap {
		capNote = " = the declared ring capacity"
	}
	add(fabRingBound, fmt.Sprintf("%d append site(s), each under a provable pre-append length bound of %d (post-append ≤ %d%s)",
		c.appends, c.appendMax, c.appendMax+1, capNote))
	add(fabRingOverflow, fmt.Sprintf("%d posted-sequence increment(s): every path appends, merges, or collapses to full before returning", c.seqStores))
	add(fabSeqMono, fmt.Sprintf("%d store site(s), each provably non-decreasing", c.seqStores))
	add(fabAckMono, fmt.Sprintf("%d drain snapshot store(s), %d numerically non-decreasing store(s); ack ≤ posted by seq monotonicity", c.ackSnapshots, c.ackNumeric))
	if fb.genField != nil {
		add(fabGenMono, fmt.Sprintf("%d store site(s), each provably non-decreasing", c.genStores))
	}
	if fb.retries != nil {
		add(fabRetryCap, fmt.Sprintf("%d store site(s), each under the declared cap of %d", c.retryStores, fb.retryCap))
	}
	if fb.merge != nil {
		guardName := "no guard predicate"
		if fb.guard != nil {
			guardName = "each " + fb.guard.Name() + " disjunct"
		}
		wit := ""
		if c.witnessed {
			wit = fmt.Sprintf("; seeded %s witnessed", fb.seed.Name())
		}
		add(fabCoalesce, fmt.Sprintf("%d feasible path end(s) proven full-or-containing under %s%s", c.paths, guardName, wit))
	}
	if fb.batch != nil {
		add(fabCallbackOnce, fmt.Sprintf("%d fire site(s) behind the done latch; latch never cleared; %d registration append site(s)", c.cbFires, c.batchAppends))
	}
	if fb.post != nil {
		add(fabFreedFall, fmt.Sprintf("%d post call site(s): %d locally guarded, %d discharged at caller call sites", c.postSites, c.postLocal, c.postCallers))
	}
	add(fabInvalWF, fmt.Sprintf("%d entry literal(s), each full or with a well-formed generation run", c.composites))
}
