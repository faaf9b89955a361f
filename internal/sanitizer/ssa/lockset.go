package ssa

import (
	"fmt"
	"go/constant"
	"go/token"
	"go/types"
	"path"

	"shootdown/internal/race"
)

// lockset is the RacerD-style discharge prover for the dynamic race
// model's instrumented fields. The contract runs in both directions:
//
//   - internal/race.Registry() declares every shared location the
//     simulator instruments, with the synchronization discipline the
//     model relies on (atomic hooks, CPU confinement, ack ordering, or a
//     single-writer epoch);
//   - this analyzer finds every detector call site in the module, maps
//     it back to its registry entry, and proves the declared discipline
//     over all paths — or reports the exact access that breaks it.
//
// A field the dynamic detector would catch racing on a bad schedule must
// therefore be caught here on *every* schedule; a field this analyzer
// proves disciplined cannot race in any run the model admits. The
// cross-validation artifact (RACE_XVAL, one row per registry entry) is
// how CI holds the two tiers to the same story.
//
// The seeded fault is part of the contract: fault.MutantEarlyAck
// deliberately acks before the flush while page tables are being freed,
// which the dynamic model reports as a race on mm.pt-nodes. Statically,
// the same violation surfaces as the one ack-ordering discharge this
// prover cannot complete — recorded as a *witness* (not a finding,
// because the breakage is intentional and config-gated) and required to
// exist exactly once, at the site the registry's SeededBy constant
// marks (comparesSeed). Zero witnesses would mean the static tier lost
// the bug the dynamic tier still sees; more than one would mean a real
// violation is hiding behind the seeded one.

const racePkg = modPath + "/internal/race"

// XValRow is one line of the cross-validation report: a registry entry
// and the static discharge status of its discipline.
type XValRow struct {
	// Key and Var identify the registry entry.
	Key string
	Var string
	// Discipline is the declared synchronization discipline.
	Discipline string
	// Status is "proven" or "unproven" (an undischarged finding exists;
	// CI fails).
	Status string
	// Detail is the one-line proof summary (site counts, witness site).
	Detail string
}

// lockSite is one detector call resolved to a registry entry.
type lockSite struct {
	f      *Func
	call   *Value
	flavor string // the Detector method name
}

func (s *lockSite) atomic() bool {
	return s.flavor == "AtomicLoad" || s.flavor == "AtomicStore" || s.flavor == "AtomicRMW"
}

func (s *lockSite) write() bool {
	return s.flavor == "WriteVar" || s.flavor == "AtomicStore" || s.flavor == "AtomicRMW"
}

type locksetAnalysis struct {
	ctx     *modCtx
	prog    *Program
	mhp     *mhpInfo
	entries []race.Field
	// sites collects resolved detector calls per registry key.
	sites map[string][]*lockSite

	findings  []Finding
	witnesses []Finding
	reported  map[string]bool
	// entryBad drives the per-entry XVal status.
	entryBad map[string]bool
}

func checkLockset(ctx *modCtx) []Finding {
	la := &locksetAnalysis{
		ctx: ctx, prog: ctx.program(), mhp: ctx.buildMHP(),
		entries:  race.Registry(),
		sites:    make(map[string][]*lockSite),
		reported: make(map[string]bool),
		entryBad: make(map[string]bool),
	}
	visited := 0
	la.prog.eachUnit(func(f *Func) {
		if f.Lit == nil {
			visited++
		}
		if f.Decl.Pkg.Path == racePkg {
			return // the detector's own implementation is the trusted base
		}
		la.collectSites(f)
	})
	for _, e := range la.entries {
		la.checkEntry(e)
	}
	ctx.visited["lockset"] = visited
	la.ctx.lockRes = &lockResult{witnesses: la.witnesses, xval: la.xvalRows()}
	sortFindings(la.findings)
	sortFindings(la.witnesses)
	return la.findings
}

// collectSites resolves every Detector call in f to its registry entry.
func (la *locksetAnalysis) collectSites(f *Func) {
	for _, b := range f.Blocks {
		for _, call := range b.Calls {
			flavor, ok := detectorHook(call.Callee)
			if !ok || len(call.Args) < 1 {
				continue
			}
			e, ok := la.resolveEntry(call.Args[0])
			if !ok {
				la.problem("", f, call.Pos,
					"shared-state access not in the race registry: the variable passed to Detector.%s does not resolve to any internal/race.Registry entry, so no discipline can be proven for it", flavor)
				continue
			}
			la.sites[e.Key] = append(la.sites[e.Key], &lockSite{f: f, call: call, flavor: flavor})
		}
	}
}

// detectorHook classifies calls to the race.Detector access hooks.
func detectorHook(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || !isNamed(sig.Recv().Type(), racePkg, "Detector") {
		return "", false
	}
	switch fn.Name() {
	case "ReadVar", "WriteVar", "AtomicLoad", "AtomicStore", "AtomicRMW":
		return fn.Name(), true
	}
	return "", false
}

// resolveEntry maps a detector-call name argument back to its registry
// entry via the two site idioms: a stored name field, or a Sprintf over
// the pattern literal.
func (la *locksetAnalysis) resolveEntry(arg *Value) (race.Field, bool) {
	v := chase(arg)
	if v == nil {
		return race.Field{}, false
	}
	switch v.Kind {
	case VFieldRead:
		if v.Obj == nil || v.Obj.Pkg() == nil {
			break
		}
		for _, e := range la.entries {
			if e.NameField == v.Obj.Name() && v.Obj.Pkg().Path() == modPath+"/"+e.Owner {
				return e, true
			}
		}
	case VCall:
		if v.Callee == nil {
			break
		}
		if v.Callee.Pkg() != nil && v.Callee.Pkg().Path() == "fmt" && v.Callee.Name() == "Sprintf" && len(v.Args) >= 1 {
			if s, ok := constString(v.Args[0]); ok {
				return race.LookupVar(s)
			}
		}
	case VConst:
		if s, ok := constString(v); ok {
			return race.LookupVar(s)
		}
	}
	return race.Field{}, false
}

// constString returns v's string constant, if it has one.
func constString(v *Value) (string, bool) {
	v = chase(v)
	if v == nil || v.Kind != VConst || v.Const == nil || v.Const.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(v.Const), true
}

// checkEntry proves one registry entry's declared discipline.
func (la *locksetAnalysis) checkEntry(e race.Field) {
	ss := la.sites[e.Key]
	if e.Var != "" && len(ss) == 0 {
		la.problem(e.Key, nil, token.NoPos,
			"registry entry %q declares detector variable %q but no module call site resolves to it: the dynamic model no longer instruments what the registry promises", e.Key, e.Var)
		return
	}
	switch e.Discipline {
	case race.DiscAtomic:
		la.checkAtomic(e, ss)
	case race.DiscConfined:
		la.checkConfined(e, ss)
	case race.DiscAckOrdered:
		la.checkAckOrdered(e, ss)
	case race.DiscEpoch:
		la.checkEpoch(e)
	}
	// Adjacency only binds entries the detector names: a var-less entry
	// (DiscEpoch) is proven structurally, not through instrumentation.
	if e.GoField != "" && e.Var != "" {
		la.checkAdjacency(e, ss)
	}
}

// checkAtomic: every access must go through an Atomic* hook.
func (la *locksetAnalysis) checkAtomic(e race.Field, ss []*lockSite) {
	for _, s := range ss {
		if !s.atomic() {
			la.problem(e.Key, s.f, s.call.Pos,
				"plain %s access to %q: the registry declares it %s, so every access must use the Atomic* hooks (a plain access here races with the atomic ones elsewhere)", s.flavor, e.Key, e.Discipline)
		}
	}
}

// ownerCheck is the method a cpu-confined entry's owner type declares to
// assert, at run time, that the running proc is the owner's own
// (kernel.CPU.checkOwner). checkConfined binds it by this name, so a
// renamed check is a finding, not a silent pass.
const ownerCheck = "checkOwner"

// checkConfined: plain accesses, legal only because the accessing code
// runs on the owning CPU. The accessor asserts that itself: the first
// call in every site's unit is the owner type's ownerCheck, on the value
// the site's name field hangs off (siteBase), so no path reaches the
// access unchecked.
func (la *locksetAnalysis) checkConfined(e race.Field, ss []*lockSite) {
	check := declMethod(la.ctx.m.Lookup(modPath+"/"+e.Owner), e.Struct, ownerCheck)
	if check == nil {
		la.problem(e.Key, nil, token.NoPos,
			"declared owner check %s.%s.%s does not resolve: lockset binds the cpu-confined check by this name, so no access to %q can be discharged", path.Base(e.Owner), e.Struct, ownerCheck, e.Key)
		return
	}
	for _, s := range ss {
		if s.atomic() {
			la.problem(e.Key, s.f, s.call.Pos,
				"atomic %s access to %q: the registry declares it %s (plain, owner-only); an atomic hook here would mask a confinement break instead of proving it cannot happen", s.flavor, e.Key, e.Discipline)
			continue
		}
		if base := la.siteBase(s); base == nil || !checksFirst(s.f, check, base) {
			la.problem(e.Key, s.f, s.call.Pos,
				"unprotected access to %q: the unit does not call %s first on the CPU it accesses, so the cpu-confined discipline cannot be discharged (a cross-CPU caller would race the owner's plain accesses)", e.Key, ownerCheck)
		}
	}
}

// checksFirst reports whether the first call in f's entry block, made
// when the block runs and not deferred, is check on base.
func checksFirst(f *Func, check *types.Func, base *Value) bool {
	if len(f.Entry.Calls) == 0 {
		return false
	}
	c := f.Entry.Calls[0]
	return c.Callee == check && !c.Deferred && chase(c.Base) == chase(base)
}

// siteBase resolves the owner value a site's name argument hangs off
// (the CPU whose name field was passed).
func (la *locksetAnalysis) siteBase(s *lockSite) *Value {
	v := chase(s.call.Args[0])
	if v == nil || v.Kind != VFieldRead {
		return nil
	}
	return v.Base
}

// checkAckOrdered proves the shootdown ack edge orders every plain
// access: responders read only pre-ack (inside IPI-handler reach), the
// initiator writes only post-ack (outside it), and no kick whose handler
// reaches a read may ack early while the guard field is set.
func (la *locksetAnalysis) checkAckOrdered(e race.Field, ss []*lockSite) {
	reads, writes := 0, 0
	readUnits := make(map[*Func]bool)
	for _, s := range ss {
		if s.atomic() {
			la.problem(e.Key, s.f, s.call.Pos,
				"atomic %s access to %q: the registry declares it %s; the ack join is the only ordering, so atomic hooks here would hide a broken edge", s.flavor, e.Key, e.Discipline)
			continue
		}
		if s.write() {
			writes++
			if la.mhp.handlerReach[s.f] {
				la.problem(e.Key, s.f, s.call.Pos,
					"initiator-side write to %q is reachable from an IPI handler: the ack-ordered discipline requires the reclaim to happen only after every responder acked, which handler context cannot guarantee", e.Key)
			}
		} else {
			reads++
			readUnits[s.f] = true
			if !la.mhp.handlerReach[s.f] {
				la.problem(e.Key, s.f, s.call.Pos,
					"responder-side read of %q outside IPI-handler reach: the ack-ordered discipline covers only reads a responder performs before acking", e.Key)
			}
		}
	}
	if reads == 0 || writes == 0 {
		la.problem(e.Key, nil, token.NoPos,
			"ack-ordered entry %q needs both responder reads and an initiator write to have an edge to prove (got %d reads, %d writes)", e.Key, reads, writes)
		return
	}
	la.checkEarlyAcks(e, readUnits)
}

// checkEarlyAcks walks every Shoot kick whose handler reaches a
// responder read of e and proves its early-ack flag is off while the
// guard field is set. The config-seeded broken variant is recorded as a
// witness instead of a finding; checkEntryWitnesses then requires it to
// have fired exactly once.
func (la *locksetAnalysis) checkEarlyAcks(e race.Field, readUnits map[*Func]bool) {
	witnessSeen := make(map[string]bool)
	seed := la.ctx.seedConst(e.SeededBy)
	la.prog.eachUnit(func(f *Func) {
		if f.Decl.Pkg.Path == racePkg {
			return
		}
		for _, b := range f.Blocks {
			for _, call := range b.Calls {
				if call.Callee == nil || !isShoot(call.Callee) || len(call.Args) < 6 {
					continue
				}
				h := la.mhp.unitOfFuncValue(call.Args[3])
				if h == nil || !la.reaches(h, readUnits) {
					continue
				}
				if payloadGuardFree(call.Args[4], e) {
					continue // the payload provably never sets the guard
				}
				for _, pos := range la.ackViolations(call.Args[5], e, nil) {
					if comparesSeed(f, seed) {
						file, line := la.ctx.posLine(f.Decl, pos)
						key := fmt.Sprintf("%s:%d:%s", file, line, e.Key)
						if witnessSeen[key] {
							continue
						}
						witnessSeen[key] = true
						la.witnesses = append(la.witnesses, Finding{
							File: file, Line: line, Analyzer: "lockset",
							Msg: fmt.Sprintf("unprotected access to %q seeded by %s: early ack forced on while %s.%s is set — the exact schedule the dynamic model reports as a race on this field", e.Key, e.SeededBy, e.GuardStruct, e.Guard),
						})
						continue
					}
					la.problem(e.Key, f, pos,
						"unprotected access to %q: this kick may ack early while %s.%s is set, so a responder's read no longer happens-before the initiator's reclaim", e.Key, e.GuardStruct, e.Guard)
				}
			}
		}
	})
	la.checkEntryWitnesses(e, len(witnessSeen))
}

// checkEntryWitnesses enforces the cross-validation count: a seeded
// entry must yield exactly one witness module-wide.
func (la *locksetAnalysis) checkEntryWitnesses(e race.Field, n int) {
	if e.SeededBy == "" || n == 1 {
		return
	}
	la.problem(e.Key, nil, token.NoPos,
		"seeded violation miscount for %q: expected the %s variant to surface exactly one static witness, got %d — the static and dynamic tiers no longer agree on the seeded bug", e.Key, e.SeededBy, n)
}

// reaches reports whether any unit in targets is reachable from h.
func (la *locksetAnalysis) reaches(h *Func, targets map[*Func]bool) bool {
	for t := range la.mhp.reach(map[*Func]bool{h: true}) {
		if targets[t] {
			return true
		}
	}
	return false
}

// payloadGuardFree reports whether the kick's payload provably has the
// guard field unset: a composite literal of the guard struct that leaves
// the guard out (zero value) or sets it to the constant false.
func payloadGuardFree(payload *Value, e race.Field) bool {
	v := chase(payload)
	if v == nil || v.Kind != VComposite || !isNamed(v.Type, modPath+"/"+e.Owner, e.GuardStruct) {
		return false
	}
	g := v.field(e.Guard)
	return g == nil || isFalse(chase(g))
}

// isFalse reports whether v is the constant false.
func isFalse(v *Value) bool {
	return v != nil && v.Kind == VConst && v.Const != nil && v.Const.Kind() == constant.Bool && !constant.BoolVal(v.Const)
}

// ackViolations returns the positions where the early-ack flag may be
// true without the guard negation dominating it. Safe shapes: literal
// false, `x && !payload.Guard` (either operand the negation), or the
// negation alone. Everything else on some phi path is a violation.
func (la *locksetAnalysis) ackViolations(ack *Value, e race.Field, visiting map[*Value]bool) []token.Pos {
	v := chase(ack)
	if v == nil {
		return nil
	}
	if visiting[v] {
		return nil
	}
	switch v.Kind {
	case VConst:
		if isFalse(v) {
			return nil
		}
		return []token.Pos{v.Pos}
	case VPhi:
		if visiting == nil {
			visiting = make(map[*Value]bool)
		}
		visiting[v] = true
		var out []token.Pos
		for _, a := range v.Args {
			out = append(out, la.ackViolations(a, e, visiting)...)
		}
		return out
	case VOp:
		if la.isGuardNegation(v, e) ||
			v.Op == token.LAND && (la.isGuardNegation(v.Args[0], e) || la.isGuardNegation(v.Args[1], e)) {
			return nil
		}
	}
	return []token.Pos{v.Pos}
}

// isGuardNegation recognizes `!x.Guard` over the guard struct.
func (la *locksetAnalysis) isGuardNegation(v *Value, e race.Field) bool {
	v = chase(v)
	if v == nil || v.Kind != VOp || v.Op != token.NOT {
		return false
	}
	g := chase(v.Args[0])
	return g != nil && g.Kind == VFieldRead && g.Obj != nil && g.Obj.Name() == e.Guard &&
		ownerIs(g, modPath+"/"+e.Owner, e.GuardStruct)
}

// ownerIs reports whether fr reads a field that pkgPath declares, off a
// value of the named struct type (or a pointer to it).
func ownerIs(fr *Value, pkgPath, structName string) bool {
	if fr.Obj == nil || fr.Obj.Pkg() == nil || fr.Obj.Pkg().Path() != pkgPath {
		return false
	}
	base := chase(fr.Base)
	if base == nil || base.Type == nil {
		return false
	}
	t := base.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return isNamed(t, pkgPath, structName)
}

// mutantPkg declares the Mutant enum whose constants seed witnesses.
const mutantPkg = modPath + "/internal/fault"

// seedConst resolves the named mutant constant in mutantPkg; nil when
// name is empty or names no constant there.
func (ctx *modCtx) seedConst(name string) *types.Const {
	return declConst(ctx.m.Lookup(mutantPkg), name)
}

// comparesSeed reports whether f compares (== or !=) a field of seed's
// type with seed itself — the static tier's one seed rule: a violation
// in such a unit is the seeded variant, a witness rather than a
// finding. Field names play no part,
// and a comparison with any other constant of the type marks a
// different mutant, whose violation stays a finding.
func comparesSeed(f *Func, seed *types.Const) bool {
	if seed == nil {
		return false
	}
	isSeed := func(v *Value) bool {
		return v.Kind == VConst && v.Const != nil && types.Identical(v.Type, seed.Type()) &&
			constant.Compare(v.Const, token.EQL, seed.Val())
	}
	isField := func(v *Value) bool {
		return v.Kind == VFieldRead && v.Obj != nil && types.Identical(v.Obj.Type(), seed.Type())
	}
	for _, v := range f.Values() {
		if v.Kind != VOp || (v.Op != token.EQL && v.Op != token.NEQ) || len(v.Args) != 2 {
			continue
		}
		x, y := chase(v.Args[0]), chase(v.Args[1])
		if x != nil && y != nil && (isField(x) && isSeed(y) || isSeed(x) && isField(y)) {
			return true
		}
	}
	return false
}

// checkEpoch: exactly one unit module-wide may store the backing field.
func (la *locksetAnalysis) checkEpoch(e race.Field) {
	fv := la.fieldVar(e)
	if fv == nil {
		return
	}
	writers := make(map[*Func]token.Pos)
	la.prog.eachUnit(func(f *Func) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Kind != IStore || in.Addr == nil {
					continue
				}
				if fr := chase(in.Addr); fr != nil && fr.Kind == VFieldRead && fr.Obj == fv {
					if _, ok := writers[f]; !ok {
						writers[f] = in.Pos
					}
				}
			}
		}
	})
	if len(writers) <= 1 {
		return
	}
	for f, pos := range writers {
		la.problem(e.Key, f, pos,
			"extra writer of %q: the single-writer-epoch discipline admits exactly one store site module-wide (%d found), so this write races the epoch owner's", e.Key, len(writers))
	}
}

// checkAdjacency: every raw read or write of the backing Go field must
// sit in a unit that also carries a detector site for the entry —
// otherwise the dynamic model is blind to that access and the static
// discipline proof does not cover it.
func (la *locksetAnalysis) checkAdjacency(e race.Field, ss []*lockSite) {
	fv := la.fieldVar(e)
	if fv == nil {
		return
	}
	instrumented := make(map[*Func]bool, len(ss))
	for _, s := range ss {
		instrumented[s.f] = true
	}
	la.prog.eachUnit(func(f *Func) {
		if f.Decl.Pkg.Path == racePkg || instrumented[f] {
			return
		}
		for _, v := range f.Values() {
			if v.Kind == VFieldRead && v.Obj == fv {
				la.problem(e.Key, f, v.Pos,
					"unprotected access to %q: this unit touches the backing field %s.%s without a detector site, so neither the dynamic model nor the %s proof covers it", e.Key, e.Struct, e.GoField, e.Discipline)
			}
		}
	})
}

// fieldVar resolves the registry entry's backing *types.Var.
func (la *locksetAnalysis) fieldVar(e race.Field) *types.Var {
	return declField(la.ctx.m.Lookup(modPath+"/"+e.Owner), e.Struct, e.GoField)
}

// problem records one discipline violation as a finding. Position-less
// problems (registry-level mismatches) anchor at the registry file.
func (la *locksetAnalysis) problem(entryKey string, f *Func, pos token.Pos, format string, args ...any) {
	file, line := "internal/race/registry.go", 1
	if f != nil && pos.IsValid() {
		file, line = la.ctx.posLine(f.Decl, pos)
	}
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s:%d:%s", file, line, msg)
	if la.reported[key] {
		return
	}
	la.reported[key] = true
	la.findings = append(la.findings, Finding{
		File: file, Line: line, Analyzer: "lockset", Msg: msg,
	})
	if entryKey != "" {
		la.entryBad[entryKey] = true
	}
}

// xvalRows builds the cross-validation report, one row per registry
// entry in registry order.
func (la *locksetAnalysis) xvalRows() []XValRow {
	rows := make([]XValRow, 0, len(la.entries))
	for _, e := range la.entries {
		status := "proven"
		if la.entryBad[e.Key] {
			status = "unproven"
		}
		detail := la.detailFor(e)
		rows = append(rows, XValRow{
			Key: e.Key, Var: e.Var, Discipline: e.Discipline,
			Status: status, Detail: detail,
		})
	}
	return rows
}

func (la *locksetAnalysis) detailFor(e race.Field) string {
	ss := la.sites[e.Key]
	reads, writes := 0, 0
	for _, s := range ss {
		if s.write() {
			writes++
		} else {
			reads++
		}
	}
	switch e.Discipline {
	case race.DiscAckOrdered:
		return fmt.Sprintf("%d responder reads / %d initiator writes ordered by the ack join; seeded %s witnessed", reads, writes, e.SeededBy)
	case race.DiscEpoch:
		return "single store site proven module-wide; readers poll racy-by-design"
	case race.DiscConfined:
		return fmt.Sprintf("%d plain sites, each behind %s.%s's owner check on the same CPU", len(ss), path.Base(e.Owner), e.Struct)
	default:
		return fmt.Sprintf("%d sites, all through Atomic* hooks", len(ss))
	}
}
