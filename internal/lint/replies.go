package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The replies analyzer checks the request/reply obligation of the simnet
// protocol: a handler that receives a CallTask/Expect request must answer
// it exactly once on every path, or the caller parks forever (process
// caller) or leaks its responder (task caller). The check is interprocedural
// in three ways a per-function scan cannot be:
//
//   - delegation: a handler may answer by handing the message to another
//     function (active's handle passes reduceReq messages to handleReduce);
//     the callee's reply summary decides whether that call discharges.
//   - closures: handlers bind respond/fail closures over the message and
//     reply through them, often transitively (fail calls respond).
//   - parametric helpers: a helper may never see the message at all — it
//     receives respond and fail functions and calls exactly one of them
//     on every path. Such helpers discharge when all their func-valued
//     arguments can reply.
//
// Only inconsistent functions are reported: one that replies on some
// paths and not others. A function that never replies is not a reply
// handler (dispatchers that re-enqueue, client-side response callbacks),
// and one that always replies is correct. panic and os.Exit end a path
// without obligation.
var simnetPkg = ModulePath + "/internal/simnet"

var Replies = &Analyzer{
	Name: "replies",
	Doc: `require exactly one reply on every path of a message handler

(module analyzer) Every non-test function outside internal/simnet taking a
simnet.Message by value is summarized as always / sometimes / never
replying, to fixpoint across delegation. A reply is a Network.Respond or
RespondTask naming the message, a call to a function summarized as
replying, an invocation of a closure that (transitively) replies, or a
call to a helper that invokes exactly one of its func-typed parameters on
every path when all func-valued arguments can reply. Functions that reply
on some paths but not others are reported at the offending return or
branch; a second reply on one path is reported as a duplicate. Runs only
in whole-module mode.`,
	RunModule: runReplies,
}

type replyKind int

const (
	replyNever replyKind = iota
	replySometimes
	replyAlways
)

func runReplies(pass *ModulePass) error {
	idx := pass.mod.funcIndex()

	// Message-handling functions in scope, with the parameter object each
	// body refers to.
	msgObjs := make(map[string]types.Object)
	for key, fi := range idx {
		if fi.pkg.Types.Path() == simnetPkg {
			continue
		}
		if obj := messageParam(fi); obj != nil {
			msgObjs[key] = obj
		}
	}
	if len(msgObjs) == 0 {
		return nil
	}

	parametric := parametricHelpers(idx)

	// Reply-kind fixpoint. The discharge predicate only grows as callee
	// summaries rise never -> sometimes -> always, so iteration converges.
	kinds := make(map[string]replyKind)
	for changed := true; changed; {
		changed = false
		for key, obj := range msgObjs {
			fi := idx[key]
			exits, _ := walkReplies(fi, repliesDischarge(fi, obj, kinds, parametric))
			if k := kindOfExits(exits); k > kinds[key] {
				kinds[key] = k
				changed = true
			}
		}
	}

	for key, obj := range msgObjs {
		fi := idx[key]
		exits, doubles := walkReplies(fi, repliesDischarge(fi, obj, kinds, parametric))
		for _, pos := range doubles {
			pass.Reportf(pos, "handler sends a second reply to the same request")
		}
		if kinds[key] != replySometimes {
			continue
		}
		gapReported := false
		for _, e := range exits {
			switch e.st.k {
			case rPending:
				pass.Reportf(e.pos, "handler returns without sending a reply on this path (other paths reply)")
			case rMaybe:
				if gapReported {
					continue
				}
				gapReported = true
				pos := e.st.gap
				if pos == token.NoPos {
					pos = e.pos
				}
				pass.Reportf(pos, "handler replies on some paths only: this branch can return without sending a reply")
			}
		}
	}
	return nil
}

// messageParam returns the object of fi's first by-value simnet.Message
// parameter, or nil.
func messageParam(fi *funcInfo) types.Object {
	sig, ok := fi.fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	params := flatFieldIdents(fi.decl.Type.Params)
	for i, id := range params {
		if i >= sig.Params().Len() {
			break
		}
		t := sig.Params().At(i).Type()
		if _, isPtr := t.(*types.Pointer); isPtr {
			continue
		}
		tn := namedTypeName(t)
		if tn == nil || tn.Name() != "Message" || tn.Pkg() == nil || tn.Pkg().Path() != simnetPkg {
			continue
		}
		if id != nil {
			if obj := fi.pkg.Info.Defs[id]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

// parametricHelpers summarizes module functions that invoke exactly one
// of their func-typed parameters on every path: the respond/fail plumbing
// of a handler, factored out.
func parametricHelpers(idx map[string]*funcInfo) map[string]bool {
	out := make(map[string]bool)
	for key, fi := range idx {
		sig, ok := fi.fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		info := fi.pkg.Info
		funcParams := make(map[types.Object]bool)
		for i, id := range flatFieldIdents(fi.decl.Type.Params) {
			if id == nil || i >= sig.Params().Len() {
				continue
			}
			if _, isFn := sig.Params().At(i).Type().Underlying().(*types.Signature); !isFn {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				funcParams[obj] = true
			}
		}
		if len(funcParams) == 0 {
			continue
		}
		exits, doubles := walkReplies(fi, func(call *ast.CallExpr) bool {
			id, isID := ast.Unparen(call.Fun).(*ast.Ident)
			return isID && funcParams[info.Uses[id]]
		})
		if len(doubles) > 0 || len(exits) == 0 {
			continue
		}
		all := true
		for _, e := range exits {
			if e.st.k != rReplied {
				all = false
			}
		}
		if all {
			out[key] = true
		}
	}
	return out
}

// repliesDischarge builds the discharge predicate for one handler: does
// this call answer the handler's message?
func repliesDischarge(fi *funcInfo, msgObj types.Object, kinds map[string]replyKind, parametric map[string]bool) func(*ast.CallExpr) bool {
	info := fi.pkg.Info
	closures := collectClosures(info, fi.decl.Body)
	dischargingClosure := make(map[types.Object]bool)

	var direct func(call *ast.CallExpr) bool
	var closureDischarges func(fl *ast.FuncLit) bool

	dischargingArg := func(a ast.Expr) bool {
		switch a := ast.Unparen(a).(type) {
		case *ast.Ident:
			return dischargingClosure[info.Uses[a]]
		case *ast.FuncLit:
			return closureDischarges(a)
		}
		return false
	}

	direct = func(call *ast.CallExpr) bool {
		fn := calleeFunc(info, call)
		if fn == nil {
			return false
		}
		if methodIs(fn, simnetPkg, "Network", "Respond") {
			return len(call.Args) >= 2 && refsObj(info, call.Args[1], msgObj)
		}
		if methodIs(fn, simnetPkg, "Network", "RespondTask") {
			return len(call.Args) >= 1 && refsObj(info, call.Args[0], msgObj)
		}
		key := funcKey(fn)
		if key == "" {
			return false
		}
		if kinds[key] != replyNever {
			// Delegation: the callee replies for us. A sometimes-callee
			// still counts here — its own gap is its own finding.
			for _, a := range call.Args {
				if refsObj(info, a, msgObj) {
					return true
				}
			}
			return false
		}
		if parametric[key] {
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Params().Len() == 0 {
				return false
			}
			np := sig.Params().Len()
			found := false
			for i, a := range call.Args {
				j := min(i, np-1)
				if _, isFn := sig.Params().At(j).Type().Underlying().(*types.Signature); !isFn {
					continue
				}
				if !dischargingArg(a) {
					return false
				}
				found = true
			}
			return found
		}
		return false
	}

	closureDischarges = func(fl *ast.FuncLit) bool {
		found := false
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if direct(call) {
				found = true
				return true
			}
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && dischargingClosure[info.Uses[id]] {
				found = true
			}
			return true
		})
		return found
	}

	// Closure fixpoint: fail replies because it calls respond, which
	// replies because it calls Respond with the message.
	for changed := true; changed; {
		changed = false
		for obj, fl := range closures {
			if !dischargingClosure[obj] && closureDischarges(fl) {
				dischargingClosure[obj] = true
				changed = true
			}
		}
	}

	return func(call *ast.CallExpr) bool {
		if direct(call) {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && dischargingClosure[info.Uses[id]]
	}
}

// refsObj reports whether e mentions obj.
func refsObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return true
	})
	return found
}

// Reply-obligation path states.
const (
	rPending = iota // no reply sent yet on this path
	rReplied        // exactly one reply sent
	rMaybe          // replied on some joined paths only
)

type rState struct {
	k   int
	gap token.Pos // rMaybe: where the non-replying path diverged
}

// joinR merges two path states; the gap position comes from the side
// that has not replied, so a suppression can anchor on the branch that
// legitimately skips the reply.
func joinR(a, b rState, aPos, bPos token.Pos) rState {
	if a.k == b.k {
		if a.gap == token.NoPos {
			a.gap = b.gap
		}
		return a
	}
	out := rState{k: rMaybe}
	switch {
	case a.k == rPending:
		out.gap = aPos
	case b.k == rPending:
		out.gap = bPos
	case a.k == rMaybe:
		out.gap = a.gap
	case b.k == rMaybe:
		out.gap = b.gap
	}
	if out.gap == token.NoPos {
		out.gap = aPos
	}
	return out
}

type repExit struct {
	pos token.Pos
	st  rState
}

// repWalk is the statement-structure interpreter for the reply
// obligation, the same conservative shape as bufpool's buffer walk.
type repWalk struct {
	info      *types.Info
	discharge func(*ast.CallExpr) bool
	exits     []repExit
	doubles   []token.Pos
}

// walkReplies runs the path walk over fi's body and returns every exit
// with its reply state, plus the positions of duplicate replies.
func walkReplies(fi *funcInfo, discharge func(*ast.CallExpr) bool) ([]repExit, []token.Pos) {
	w := &repWalk{info: fi.pkg.Info, discharge: discharge}
	st, falls := w.stmts(fi.decl.Body.List, rState{k: rPending})
	if falls {
		w.exits = append(w.exits, repExit{fi.decl.Body.Rbrace, st})
	}
	return w.exits, w.doubles
}

func kindOfExits(exits []repExit) replyKind {
	if len(exits) == 0 {
		return replyNever // every path panics; no obligation survives
	}
	all, none := true, true
	for _, e := range exits {
		switch e.st.k {
		case rReplied:
			none = false
		case rMaybe:
			all, none = false, false
		case rPending:
			all = false
		}
	}
	switch {
	case all:
		return replyAlways
	case none:
		return replyNever
	}
	return replySometimes
}

func (w *repWalk) stmts(list []ast.Stmt, st rState) (rState, bool) {
	for _, s := range list {
		var cont bool
		st, cont = w.stmt(s, st)
		if !cont {
			return st, false
		}
	}
	return st, true
}

func (w *repWalk) stmt(s ast.Stmt, st rState) (rState, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.ReturnStmt:
		var cont bool
		st, cont = w.scan(s, st)
		if cont {
			w.exits = append(w.exits, repExit{s.Pos(), st})
		}
		return st, false
	case *ast.BranchStmt:
		// break/continue/goto: give up precise tracking of this path.
		return st, false
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		st, cont := w.scan(s.Cond, st)
		if !cont {
			return st, false
		}
		thenSt, thenFall := w.stmts(s.Body.List, st)
		elseSt, elseFall, elsePos := st, true, s.Pos()
		if s.Else != nil {
			elseSt, elseFall = w.stmt(s.Else, st)
			elsePos = s.Else.Pos()
		}
		switch {
		case thenFall && elseFall:
			return joinR(thenSt, elseSt, s.Body.Pos(), elsePos), true
		case thenFall:
			return thenSt, true
		case elseFall:
			return elseSt, true
		default:
			return st, false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st, _ = w.scan(s.Cond, st)
		}
		bodySt, _ := w.stmts(s.Body.List, st)
		if s.Cond == nil && !loopCanExit(s.Body) {
			return bodySt, false
		}
		return joinR(st, bodySt, s.Pos(), s.Pos()), true
	case *ast.RangeStmt:
		st, _ = w.scan(s.X, st)
		bodySt, _ := w.stmts(s.Body.List, st)
		return joinR(st, bodySt, s.Pos(), s.Pos()), true
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, st)
	default:
		return w.scan(s, st)
	}
}

// branches joins all case bodies; a missing default joins in the entry
// state at the switch position (some message may match no case).
func (w *repWalk) branches(s ast.Stmt, st rState) (rState, bool) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st, _ = w.scan(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var acc rState
	accPos := token.NoPos
	got, anyFall := false, false
	add := func(cs rState, pos token.Pos) {
		anyFall = true
		if !got {
			acc, accPos, got = cs, pos, true
			return
		}
		acc = joinR(acc, cs, accPos, pos)
	}
	for _, cs := range body.List {
		var stmts []ast.Stmt
		clausePos := cs.Pos()
		switch cs := cs.(type) {
		case *ast.CaseClause:
			stmts = cs.Body
			if cs.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			stmts = cs.Body
			if cs.Comm == nil {
				hasDefault = true
			} else {
				st, _ = w.stmt(cs.Comm, st)
			}
		}
		cSt, cFall := w.stmts(stmts, st)
		if cFall {
			add(cSt, clausePos)
		}
	}
	if !hasDefault {
		add(st, s.Pos())
	}
	if !got {
		return st, anyFall
	}
	return acc, anyFall
}

// scan processes one straight-line statement or expression: discharge
// events flip the state, a second discharge on a replied path is a
// duplicate, and panic/os.Exit terminate the path without obligation.
func (w *repWalk) scan(n ast.Node, st rState) (rState, bool) {
	if n == nil {
		return st, true
	}
	type event struct {
		pos  token.Pos
		kind int // 0 discharge, 1 terminate
	}
	var events []event
	inspectShallow(n, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return
		}
		if w.discharge(call) {
			events = append(events, event{call.Pos(), 0})
			return
		}
		if fn := calleeFunc(w.info, call); fn == nil {
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && id.Name == "panic" && w.info.Uses[id] == nil {
				events = append(events, event{call.Pos(), 1})
			}
		} else if pkgFuncIs(fn, "os", "Exit") {
			events = append(events, event{call.Pos(), 1})
		}
	})
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].pos < events[j-1].pos; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	for _, ev := range events {
		switch ev.kind {
		case 0:
			switch st.k {
			case rPending, rMaybe:
				st = rState{k: rReplied}
			case rReplied:
				w.doubles = append(w.doubles, ev.pos)
			}
		case 1:
			return st, false
		}
	}
	return st, true
}
