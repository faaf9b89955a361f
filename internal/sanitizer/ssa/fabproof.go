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
//     inputs. The config-seeded BrokenCoalesceShrink variant fails this
//     proof on exactly one path, recorded as a witness (the static half
//     of the cross-validation contract; the shadow-TLB oracle is the
//     dynamic half).
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
// Fabrics are discovered structurally, not by name binding to one
// package: a struct with a slice-typed ring field plus posted/acked
// sequence counters and a full-flush flag is a fabric, so fixtures
// exercise the prover with their own rings. Obligations the engine
// cannot discharge can carry a "bounded-by-design:" waiver marker;
// stalemarker flags any such marker nothing consumed. The per-obligation
// rows (proven/waived/unproven) form the FABPROOF artifact CI fails on,
// mirroring RACE_XVAL.

import (
	"fmt"
	"go/ast"
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
	// Status is "proven", "waived" (a bounded-by-design marker covers
	// the failing site) or "unproven" (an undischarged finding; CI fails).
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

// fabric is one discovered ring structure with its companion state.
type fabric struct {
	pkg   *Package
	owner *types.Named
	// ring/postSeq/ackSeq/full are the fabric struct's fields.
	ring, postSeq, ackSeq, full *types.Var
	// elem is the ring element struct and its role fields.
	elem                                               *types.Named
	elemStart, elemEnd, elemGenLo, elemGenHi, elemFull *types.Var
	// ringCap is the declared ring capacity const (0 when absent).
	ringCap int64
	// merge folds one element into another in-ring; guard is the boolean
	// predicate deciding whether merge applies; post owns the posted-
	// sequence increment.
	merge, guard, post *Func
	// mergeP0/mergeP1 are the merge/guard element parameter indices.
	mergeP0, mergeP1 int
	// batch is the completion-tracking struct with its callback field,
	// done latch and (optional) retry counter.
	batch             *types.Named
	cb, done, retries *types.Var
	retryCap          int64
	// genOwner/genField are the module generation counter, shared by
	// every fabric (the mm tier the rings carry generations for).
	genOwner *types.Named
	genField *types.Var
	// brokenField names a "broken"-tagged knob the merge function reads:
	// the config-seeded variant whose coverage loss must surface as
	// exactly one witness.
	brokenField string
}

func (fb *fabric) subject(prop string) string {
	pkg := fb.pkg.Types.Name()
	owner := pkg + "." + fb.owner.Obj().Name()
	switch prop {
	case fabRingBound, fabRingOverflow:
		return owner + "." + fb.ring.Name()
	case fabSeqMono:
		return owner + "." + fb.postSeq.Name()
	case fabAckMono:
		return owner + "." + fb.ackSeq.Name()
	case fabGenMono:
		if fb.genOwner != nil && fb.genField != nil {
			return fb.genOwner.Obj().Pkg().Name() + "." + fb.genOwner.Obj().Name() + "." + fb.genField.Name()
		}
	case fabRetryCap:
		if fb.batch != nil && fb.retries != nil {
			return pkg + "." + fb.batch.Obj().Name() + "." + fb.retries.Name()
		}
	case fabCoalesce:
		if fb.merge != nil {
			return funcIdent(fb.merge.Decl)
		}
	case fabCallbackOnce:
		if fb.batch != nil && fb.cb != nil {
			return pkg + "." + fb.batch.Obj().Name() + "." + fb.cb.Name()
		}
	case fabFreedFall:
		if fb.post != nil {
			return funcIdent(fb.post.Decl)
		}
	case fabInvalWF:
		return pkg + "." + fb.elem.Obj().Name()
	}
	return owner
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
	sups      []Suppression
	witnesses []Finding
	rows      []FabRow
	reported  map[string]bool
	rowBad    map[string]bool
	rowWaived map[string]bool

	// freedNeed collects post-call sites whose enclosing unit could not
	// prove the freed-clear fact locally (phase-two caller propagation).
	freedNeed map[*Func][]token.Pos
}

func checkFabproof(ctx *modCtx) ([]Finding, []Suppression) {
	fa := &fabAnalysis{
		ctx: ctx, prog: ctx.program(),
		reported:  make(map[string]bool),
		rowBad:    make(map[string]bool),
		rowWaived: make(map[string]bool),
	}
	fa.sums = newAbsSummaries(fa.prog)
	visited := 0
	fa.prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			visited++
		}
	})
	ctx.visited["fabproof"] = visited
	genOwner, genField := findGenCounter(ctx.pkgs)
	for _, fb := range discoverFabrics(ctx.pkgs) {
		fb.genOwner, fb.genField = genOwner, genField
		fa.bindUnits(fb)
		fa.checkFabric(fb)
	}
	ctx.fabRes = &fabResult{witnesses: fa.witnesses, rows: fa.rows}
	sortFindings(fa.findings)
	sortFindings(fa.witnesses)
	return fa.findings, fa.sups
}

// --- discovery ---

// discoverFabrics finds every fabric-shaped struct: a slice-typed ring
// field plus posted/acked sequence counters and a full-flush flag.
func discoverFabrics(pkgs []*Package) []*fabric {
	var out []*fabric
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			if fb := classifyFabric(p, named, st); fb != nil {
				out = append(out, fb)
			}
		}
	}
	return out
}

func classifyFabric(p *Package, owner *types.Named, st *types.Struct) *fabric {
	fb := &fabric{pkg: p, owner: owner}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		low := strings.ToLower(f.Name())
		switch {
		case fb.ring == nil && strings.Contains(low, "ring") && isSliceType(f.Type()):
			fb.ring = f
		case fb.postSeq == nil && strings.Contains(low, "postseq") && isUnsignedType(f.Type()):
			fb.postSeq = f
		case fb.ackSeq == nil && strings.Contains(low, "ackseq") && isUnsignedType(f.Type()):
			fb.ackSeq = f
		case fb.full == nil && (strings.Contains(low, "full") || strings.Contains(low, "flushall")) && isBoolType(f.Type()):
			fb.full = f
		}
	}
	if fb.ring == nil || fb.postSeq == nil || fb.ackSeq == nil || fb.full == nil {
		return nil
	}
	sl, ok := fb.ring.Type().Underlying().(*types.Slice)
	if !ok {
		return nil
	}
	fb.elem = namedType(sl.Elem())
	if fb.elem == nil {
		return nil
	}
	es, ok := fb.elem.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < es.NumFields(); i++ {
		f := es.Field(i)
		switch strings.ToLower(f.Name()) {
		case "start":
			fb.elemStart = f
		case "end":
			fb.elemEnd = f
		case "genlo":
			fb.elemGenLo = f
		case "genhi":
			fb.elemGenHi = f
		case "full":
			fb.elemFull = f
		}
	}
	fb.ringCap = scopeConst(p, "ringsize")
	fb.retryCap = scopeConst(p, "retries")
	fb.batch, fb.cb, fb.done, fb.retries = classifyBatch(p)
	return fb
}

// scopeConst finds the package const whose lowercase name contains frag.
func scopeConst(p *Package, frag string) int64 {
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !strings.Contains(strings.ToLower(name), frag) {
			continue
		}
		if v, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
			return v
		}
	}
	return 0
}

// classifyBatch finds the package's completion-tracking struct: a
// func-typed callback field plus a "done" bool latch. Structs that also
// carry a retry counter win ties.
func classifyBatch(p *Package) (*types.Named, *types.Var, *types.Var, *types.Var) {
	type cand struct {
		named             *types.Named
		cb, done, retries *types.Var
	}
	var cands []cand
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		c := cand{named: named}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			low := strings.ToLower(f.Name())
			if _, isFn := f.Type().Underlying().(*types.Signature); isFn && c.cb == nil {
				c.cb = f
			}
			if strings.Contains(low, "done") && isBoolType(f.Type()) && c.done == nil {
				c.done = f
			}
			if strings.Contains(low, "retr") && isNumericType(f.Type()) && c.retries == nil {
				c.retries = f
			}
		}
		if c.cb != nil && c.done != nil {
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		ri, rj := cands[i].retries != nil, cands[j].retries != nil
		if ri != rj {
			return ri
		}
		return cands[i].named.Obj().Name() < cands[j].named.Obj().Name()
	})
	if len(cands) == 0 {
		return nil, nil, nil, nil
	}
	c := cands[0]
	return c.named, c.cb, c.done, c.retries
}

// findGenCounter locates the module's TLB generation counter field.
func findGenCounter(pkgs []*Package) (*types.Named, *types.Var) {
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if strings.Contains(strings.ToLower(f.Name()), "tlbgen") && isNumericType(f.Type()) {
					return named, f
				}
			}
		}
	}
	return nil, nil
}

// bindUnits resolves the fabric's merge/guard/post units by shape.
func (fa *fabAnalysis) bindUnits(fb *fabric) {
	elemPtr := func(t types.Type) bool {
		p, ok := t.Underlying().(*types.Pointer)
		return ok && namedType(p.Elem()) == fb.elem
	}
	fa.prog.eachUnit(func(f *Func) {
		if f.Lit != nil || f.Decl.Pkg.Path != fb.pkg.Path || f.Sig == nil {
			return
		}
		params := f.Sig.Params()
		var idx []int
		for i := 0; i < params.Len(); i++ {
			if elemPtr(params.At(i).Type()) {
				idx = append(idx, i)
			}
		}
		if len(idx) >= 2 {
			p0 := "p:" + itoa(idx[0]) + "."
			stores := false
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Kind != IStore || in.Addr == nil {
						continue
					}
					if key, ok := atomKey(in.Addr); ok && strings.HasPrefix(key, p0) {
						stores = true
					}
				}
			}
			isBool := f.Sig.Results().Len() == 1 && isBoolType(f.Sig.Results().At(0).Type())
			if stores && fb.merge == nil {
				fb.merge, fb.mergeP0, fb.mergeP1 = f, idx[0], idx[1]
			} else if !stores && isBool && fb.guard == nil {
				fb.guard = f
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore {
					continue
				}
				if _, ok := fieldAddr(in, fb.postSeq); ok && fb.post == nil {
					fb.post = f
				}
			}
		}
	})
	if fb.merge != nil {
		for _, v := range fb.merge.Values() {
			if v.Kind == VFieldRead && v.Obj != nil && strings.Contains(strings.ToLower(v.Obj.Name()), "broken") {
				fb.brokenField = v.Obj.Name()
			}
		}
	}
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
// flag is off (upper bound ≤ 0 on a "freed"-named atom).
func envProvesFreedClear(e *absEnv) bool {
	keys := make([]string, 0, len(e.bind))
	for k := range e.bind {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		seg := k
		if i := strings.LastIndex(k, "."); i >= 0 {
			seg = k[i+1:]
		}
		if !strings.Contains(strings.ToLower(seg), "freed") {
			continue
		}
		if e.upper(e.bind[k]) <= 0 {
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
	p0 := "p:" + itoa(fb.mergeP0)
	p1 := "p:" + itoa(fb.mergeP1)
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
	if fb.brokenField != "" && len(witnessSeen) != 1 {
		fa.problem(fb, fabCoalesce, fb.merge, unitPos(fb.merge),
			"seeded violation miscount: expected the %s variant to surface exactly one coverage-loss witness, got %d — the static and dynamic tiers no longer agree on the seeded bug", fb.brokenField, len(witnessSeen))
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
	if bk := brokenAtom(e); bk != "" {
		key := fmt.Sprintf("%s:%d", file, line)
		if !witnessSeen[key] {
			witnessSeen[key] = true
			fa.witnesses = append(fa.witnesses, Finding{
				File: file, Line: line, Analyzer: "fabproof",
				Msg: fmt.Sprintf("coalesce coverage loss seeded by the config-planted %s variant: the merged ring entry adopts the newer end and stops covering the older entry's tail — the exact shrink the shadow-TLB oracle convicts as a stale translation", bk),
			})
		}
		return
	}
	fa.problem(fb, fabCoalesce, fb.merge, pos,
		"coalesce merge may lose coverage: on this feasible path the merged entry is neither provably full nor provably spanning both inputs' ranges, so a drained target would skip invalidations the initiator believes posted")
}

// brokenAtom returns the "broken"-tagged knob the current path proved
// set, identifying a config-seeded variant path.
func brokenAtom(e *absEnv) string {
	keys := make([]string, 0, len(e.bind))
	for k := range e.bind {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		seg := k
		if i := strings.LastIndex(k, "."); i >= 0 {
			seg = k[i+1:]
		}
		if strings.Contains(strings.ToLower(seg), "broken") && e.lower(e.bind[k]) >= 1 {
			return seg
		}
	}
	return ""
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
	cl, ok := v.Expr.(*ast.CompositeLit)
	if !ok {
		return
	}
	elt := func(field *types.Var) *Value {
		if field == nil {
			return nil
		}
		st, _ := fb.elem.Underlying().(*types.Struct)
		for i, el := range cl.Elts {
			if i >= len(v.Args) {
				break
			}
			if kv, isKV := el.(*ast.KeyValueExpr); isKV {
				if id, isID := kv.Key.(*ast.Ident); isID && id.Name == field.Name() {
					return v.Args[i]
				}
				continue
			}
			if st != nil && i < st.NumFields() && st.Field(i) == field {
				return v.Args[i]
			}
		}
		return nil
	}
	if fv := elt(fb.elemFull); fv != nil {
		if cb, ok := constInt(f, chase(fv)); ok && cb != 0 {
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
		if cv, ok := constInt(f, chase(lo)); !ok || cv != 0 {
			bad()
		}
	case samePlace(lo, hi):
		// identical generation expressions: a single-generation run
	default:
		cl, okl := constInt(f, chase(lo))
		ch, okh := constInt(f, chase(hi))
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

// problem records one obligation failure: waived into a suppression when
// a "bounded-by-design:" marker covers the line, a finding otherwise.
func (fa *fabAnalysis) problem(fb *fabric, prop string, f *Func, pos token.Pos, format string, args ...any) {
	rk := prop + "|" + fb.subject(prop)
	file, line := "internal/smp/fabric.go", 1
	if f != nil && pos.IsValid() {
		file, line = fa.ctx.posLine(f.Decl, pos)
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s:%d:%s", file, line, msg)
	if fa.reported[key] {
		return
	}
	fa.reported[key] = true
	if reason, ok := fa.ctx.fabMarkerFor(file, line); ok {
		fa.sups = append(fa.sups, Suppression{
			File: file, Line: line, Analyzer: "fabproof", Reason: reason,
		})
		fa.rowWaived[rk] = true
		return
	}
	fa.findings = append(fa.findings, Finding{
		File: file, Line: line, Analyzer: "fabproof", Msg: msg,
	})
	fa.rowBad[rk] = true
}

func (fa *fabAnalysis) appendRows(fb *fabric, c *fabCounts) {
	add := func(prop, detail string) {
		subject := fb.subject(prop)
		rk := prop + "|" + subject
		status := "proven"
		if fa.rowWaived[rk] {
			status = "waived"
		}
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
			wit = fmt.Sprintf("; seeded %s witnessed", fb.brokenField)
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
