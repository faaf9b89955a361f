package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the intraprocedural control-flow graph of one function
// body as the IRBlocks the SSA lowering then fills. The builder makes two
// choices that the analyses rely on:
//
//   - Short-circuit conditions are desugared: `a && b`, `a || b` and `!a`
//     become chains of single-condition branch blocks, so an analysis sees
//     every atomic condition (`err != nil`, `fr.Empty()`, a TryDown call)
//     with its own true/false edges. This is what lets flushobligation
//     treat `if err == nil && !fr.Empty() { ... }` path-sensitively
//     without a general symbolic evaluator.
//
//   - `panic(...)` and calls to functions that the builder cannot see
//     through are ordinary nodes, but panic terminates its block into the
//     dedicated PanicExit block, so analyses can decide separately what an
//     obligation means on a crashing path.
//
// The graph is deliberately small: a block holds AST nodes in evaluation
// order and either ends in an atomic condition (Succs is its true and
// false edge) or has zero or more unconditional successors.

type loopFrame struct {
	label           string
	breakTo, contTo *IRBlock
}

type cfgBuilder struct {
	f     *Func
	loops []loopFrame
	// breakables tracks the innermost breakable non-loop statement
	// (switch/select) target per label.
	breakables []loopFrame
	// mapRange marks the blocks made while lowering a map-range body.
	mapRange bool
}

// buildCFG makes f's blocks for body, Exit, PanicExit and Entry first.
// Preds list predecessors in block creation order, so phi operands do
// too. mapRange is set for a literal written in a map-range body.
func buildCFG(f *Func, body *ast.BlockStmt, mapRange bool) {
	b := &cfgBuilder{f: f, mapRange: mapRange}
	f.Exit = b.newBlock()
	f.PanicExit = b.newBlock()
	f.Entry = b.newBlock()
	if end := b.stmts(body.List, f.Entry, ""); end != nil {
		b.connect(end, f.Exit)
	}
	for _, blk := range f.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
}

func (b *cfgBuilder) newBlock() *IRBlock {
	blk := &IRBlock{Index: len(b.f.Blocks), MapRange: b.mapRange}
	b.f.Blocks = append(b.f.Blocks, blk)
	return blk
}

func (b *cfgBuilder) connect(from, to *IRBlock) {
	if from == nil || from.cond != nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// stmts lowers a statement list starting in cur; it returns the block
// control falls out of, or nil when every path terminated (return/panic/
// branch).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *IRBlock, label string) *IRBlock {
	for i, s := range list {
		lbl := ""
		if i == 0 {
			lbl = label
		}
		cur = b.stmt(s, cur, lbl)
		if cur == nil {
			// Remaining statements are unreachable; still record their
			// nodes for analyses that scan declarations, in a dead block.
			if i+1 < len(list) {
				dead := b.newBlock()
				_ = b.stmts(list[i+1:], dead, "")
			}
			return nil
		}
	}
	return cur
}

// stmt lowers one statement; label propagates through LabeledStmt so
// labeled loops can be targeted by break/continue.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *IRBlock, label string) *IRBlock {
	if cur == nil {
		return nil
	}
	switch v := s.(type) {
	case *ast.LabeledStmt:
		return b.stmt(v.Stmt, cur, v.Label.Name)

	case *ast.BlockStmt:
		return b.stmts(v.List, cur, "")

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, v)
		b.connect(cur, b.f.Exit)
		return nil

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, v)
		if isPanicCall(v.X) {
			b.connect(cur, b.f.PanicExit)
			return nil
		}
		return cur

	case *ast.IfStmt:
		if v.Init != nil {
			cur = b.stmt(v.Init, cur, "")
		}
		thenB, elseB, after := b.newBlock(), b.newBlock(), b.newBlock()
		b.cond(v.Cond, cur, thenB, elseB)
		if end := b.stmt(v.Body, thenB, ""); end != nil {
			b.connect(end, after)
		}
		if v.Else != nil {
			if end := b.stmt(v.Else, elseB, ""); end != nil {
				b.connect(end, after)
			}
		} else {
			b.connect(elseB, after)
		}
		return after

	case *ast.ForStmt:
		if v.Init != nil {
			cur = b.stmt(v.Init, cur, "")
		}
		head, body, after := b.newBlock(), b.newBlock(), b.newBlock()
		b.connect(cur, head)
		if v.Cond != nil {
			b.cond(v.Cond, head, body, after)
		} else {
			b.connect(head, body)
		}
		post := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, contTo: post})
		end := b.stmts(v.Body.List, body, "")
		b.loops = b.loops[:len(b.loops)-1]
		if end != nil {
			b.connect(end, post)
		}
		if v.Post != nil {
			if p := b.stmt(v.Post, post, ""); p != nil {
				b.connect(p, head)
			}
		} else {
			b.connect(post, head)
		}
		return after

	case *ast.RangeStmt:
		head, body, after := b.newBlock(), b.newBlock(), b.newBlock()
		head.nodes = append(head.nodes, v)
		b.connect(cur, head)
		b.connect(head, body)
		b.connect(head, after)
		outer := b.mapRange
		if t := b.f.info.TypeOf(v.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				b.mapRange, body.MapRange = true, true
			}
		}
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, contTo: head})
		end := b.stmts(v.Body.List, body, "")
		b.loops = b.loops[:len(b.loops)-1]
		b.mapRange = outer
		if end != nil {
			b.connect(end, head)
		}
		return after

	case *ast.SwitchStmt:
		if v.Init != nil {
			cur = b.stmt(v.Init, cur, "")
		}
		if v.Tag != nil {
			cur.nodes = append(cur.nodes, v.Tag)
		}
		return b.switchClauses(v.Body.List, cur, label, false)

	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			cur = b.stmt(v.Init, cur, "")
		}
		cur.nodes = append(cur.nodes, v.Assign)
		return b.switchClauses(v.Body.List, cur, label, false)

	case *ast.SelectStmt:
		return b.switchClauses(v.Body.List, cur, label, true)

	case *ast.BranchStmt:
		cur.nodes = append(cur.nodes, v)
		name := ""
		if v.Label != nil {
			name = v.Label.Name
		}
		switch v.Tok {
		case token.BREAK:
			if t := b.findBreak(name); t != nil {
				b.connect(cur, t)
			}
		case token.CONTINUE:
			if t := b.findContinue(name); t != nil {
				b.connect(cur, t)
			}
		case token.FALLTHROUGH:
			// Handled by switchClauses via clause ordering; treated as
			// falling to the next clause by the caller.
			return cur
		case token.GOTO:
			// Not used in this module; treat conservatively as
			// terminating so no spurious path claims are made.
		}
		return nil

	default:
		// Assignments, declarations, incdec, go, send, empty: straight-line.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchClauses lowers switch/type-switch/select bodies: the head fans out
// to every clause (and to after when no default exists).
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, head *IRBlock, label string, isSelect bool) *IRBlock {
	after := b.newBlock()
	hasDefault := false
	entries := make([]*IRBlock, len(clauses))
	var bodies [][]ast.Stmt
	for i, cs := range clauses {
		entry := b.newBlock()
		entries[i] = entry
		b.connect(head, entry)
		switch c := cs.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				entry.nodes = append(entry.nodes, e)
			}
			bodies = append(bodies, c.Body)
		case *ast.CommClause:
			entry.SelectComm = true
			if c.Comm == nil {
				hasDefault = true
			} else {
				entry.nodes = append(entry.nodes, c.Comm)
			}
			bodies = append(bodies, c.Body)
		default:
			bodies = append(bodies, nil)
		}
	}
	if !hasDefault || isSelect {
		// Without a default the switch may fall through whole; a select
		// without default blocks, but modeling the skip edge is harmless
		// for the may-analyses built on this graph.
		b.connect(head, after)
	}
	b.breakables = append(b.breakables, loopFrame{label: label, breakTo: after})
	for i, body := range bodies {
		end := b.stmts(body, entries[i], "")
		if end != nil {
			if ft := fallsThrough(body); ft && i+1 < len(entries) {
				b.connect(end, entries[i+1])
			} else {
				b.connect(end, after)
			}
		}
	}
	b.breakables = b.breakables[:len(b.breakables)-1]
	return after
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) findBreak(label string) *IRBlock {
	// Nearest breakable (switch/select) wins for unlabeled breaks when it
	// is inner to the nearest loop; the builder pushes breakables after
	// loops, so scan both stacks by recency.
	if label == "" {
		if len(b.breakables) > 0 {
			return b.breakables[len(b.breakables)-1].breakTo
		}
		if len(b.loops) > 0 {
			return b.loops[len(b.loops)-1].breakTo
		}
		return nil
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		if b.loops[i].label == label {
			return b.loops[i].breakTo
		}
	}
	for i := len(b.breakables) - 1; i >= 0; i-- {
		if b.breakables[i].label == label {
			return b.breakables[i].breakTo
		}
	}
	return nil
}

func (b *cfgBuilder) findContinue(label string) *IRBlock {
	for i := len(b.loops) - 1; i >= 0; i-- {
		if label == "" || b.loops[i].label == label {
			return b.loops[i].contTo
		}
	}
	return nil
}

// cond lowers a branch condition with short-circuit desugaring: every
// atomic condition gets its own block ending in tsucc/fsucc edges.
func (b *cfgBuilder) cond(e ast.Expr, cur, tsucc, fsucc *IRBlock) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		b.cond(v.X, cur, tsucc, fsucc)
		return
	case *ast.UnaryExpr:
		if v.Op == token.NOT {
			b.cond(v.X, cur, fsucc, tsucc)
			return
		}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			mid := b.newBlock()
			b.cond(v.X, cur, mid, fsucc)
			b.cond(v.Y, mid, tsucc, fsucc)
			return
		case token.LOR:
			mid := b.newBlock()
			b.cond(v.X, cur, tsucc, mid)
			b.cond(v.Y, mid, tsucc, fsucc)
			return
		}
	}
	cur.nodes = append(cur.nodes, e)
	cur.cond = e
	cur.Succs = []*IRBlock{tsucc, fsucc}
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
