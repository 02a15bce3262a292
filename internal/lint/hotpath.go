package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// NewHotpath returns the hotpath analyzer: a function whose doc comment
// carries //phttp:hotpath must stay allocation-free in steady state.
// Inside its body the analyzer rejects:
//
//   - function literals that capture enclosing variables (each closure
//     instantiation heap-allocates its environment)
//   - calls into fmt and log (formatting allocates; the fix is a cold
//     non-annotated helper for panic/diagnostic paths)
//   - the standard-library calls the wire layer was rid of: the
//     allocating strings.Fields/Split, strconv.Itoa/FormatInt,
//     bufio.NewReaderSize and bufio.Reader's ReadString/ReadBytes,
//     net connections' File and os.File's Fd, which take a descriptor out
//     of a live connection at the cost of its mode, os.NewFile, which
//     allocates and registers a descriptor with the poller, and a
//     connection's or file's SyscallConn, which allocates the RawConn it
//     returns (hotAllocCalls)
//   - string concatenation between non-constant operands
//   - map literals (always heap-allocated)
//   - interface boxing of non-pointer values: passing, assigning or
//     returning a concrete int/struct/string/slice value where an
//     interface is expected. Pointer-shaped values (pointers, channels,
//     maps, funcs) and constants box without allocating and stay legal —
//     which is exactly the contract of simcore's Action payloads.
//   - in the functions listed in lockFreeRequired only: taking a
//     sync.Mutex or sync.RWMutex (hotLockCalls).
//
// The gate is structural, not escape-analysis-precise: it can flag an
// allocation the compiler would sink or prove dead (then restructure or
// drop the annotation — a hot path should not rely on the optimizer),
// and it does not model allocations hidden behind calls into
// non-annotated helpers.
//
// An annotation only guards a function while it is there. For the
// functions listed in hotpathRequired the analyzer also reports the
// annotation's absence (or the function's), so the gate on them cannot be
// lifted by deleting a comment.
func NewHotpath() *Analyzer {
	a := &Analyzer{
		Name: "hotpath",
		Doc:  "forbid allocation idioms inside functions annotated //phttp:hotpath",
	}
	a.Run = func(pass *Pass) error {
		missing := map[string]bool{}
		for _, name := range hotpathRequired[pass.Pkg.Path()] {
			missing[name] = true
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := funcDeclName(fn)
				if !funcDirective(fn, DirHotpath) {
					if missing[name] {
						delete(missing, name)
						pass.Reportf(fn.Pos(), "%s is on the per-request path and must be annotated //phttp:%s", name, DirHotpath)
					}
					continue
				}
				delete(missing, name)
				checkHotFunc(pass, fn, slices.Contains(lockFreeRequired[pass.Pkg.Path()], name))
			}
		}
		for _, name := range hotpathRequired[pass.Pkg.Path()] { // table order: stable output
			if missing[name] && len(pass.Files) > 0 {
				pass.Reportf(pass.Files[0].Name.Pos(), "%s, required to be a //phttp:%s function, is not declared in %s (renamed? update hotpathRequired)", name, DirHotpath, pass.Pkg.Path())
			}
		}
		return nil
	}
	return a
}

// hotpathRequired names, per package, the functions that must carry
// //phttp:hotpath: the prototype's wire layer — what every request crosses
// between the client socket and the dispatcher, and between the control
// session and the response — where a fmt.Sprintf or a strings.Fields per
// request is easy to write and nothing else would object; and the
// simulator's event loop — the engine's schedule and step and the
// simulator's two event handlers and three resource calls, which every
// simulated event crosses; and the mapping table's reads and bit helpers,
// which every dispatch decision in both worlds crosses. Methods are
// "Type.Method".
var hotpathRequired = map[string][]string{
	"phttp/internal/cache":   {"Mapping.IsMapped", "Mapping.MaskWord", "Mapping.AppendNodesFor", "nodeMasks.word", "nodeMasks.setBit", "nodeMasks.clearBit"},
	"phttp/internal/httpmsg": {"ReadRequestInto", "AppendResponseHead"},
	"phttp/internal/cluster": {"appendReq", "parseCtrl", "Backend.serveConn", "FrontEnd.handOff", "writeHandoff", "acceptor.accept", "clientSock.attach", "workers.start", "clientSock.Read", "clientSock.Write", "clientSock.splice", "clientSock.run", "beConn.Write",
		"respWriter.sendPages", "bodyPipe.put", "bodyPipe.putPage", "bodyPipe.putBody", "bodyPipe.spliceTo", "bodyPipe.drainTo", "bodyPipe.fillFrom", "beConn.drainPipe", "respWriter.forward", "peerConn.fill", "peerOut.drainPipe"},
	"phttp/internal/simcore": {"Engine.Step", "Engine.Call", "Engine.enqueue", "Resource.Call"},
	"phttp/internal/sim":     {"connStep", "reqStep", "Sim.cpuCall", "Sim.diskCall", "Sim.feCall"},
}

// lockFreeRequired names, per package, the hot paths that must also take
// no lock: the mapping table's reads, which every dispatch decision makes
// and which stay lock-free so readers never wait on a node's writers.
// Every name is also in hotpathRequired, so the gate cannot be lifted by
// deleting an annotation or renaming the function.
var lockFreeRequired = map[string][]string{
	"phttp/internal/cache": {"Mapping.IsMapped", "Mapping.MaskWord", "Mapping.AppendNodesFor", "nodeMasks.word"},
}

// hotLockCalls are the lock acquisitions a lockFreeRequired function must
// not make.
var hotLockCalls = map[string]bool{
	"sync.Mutex.Lock":    true,
	"sync.RWMutex.Lock":  true,
	"sync.RWMutex.RLock": true,
}

// hotAllocCalls are the standard-library calls the wire layer used to make
// per request and must not make again, each with what is wrong with it and
// what to do instead. Keyed by import path: "pkg.Func", or
// "pkg.Type.Method" with the type that declares the method (File is
// declared on net.conn, which TCPConn, UnixConn and the rest embed). Add
// an entry when a regression shows the need.
var hotAllocCalls = map[string]string{
	"strings.Fields":           "allocates its result (index the bytes in place)",
	"strings.Split":            "allocates its result (use strings.Cut or index in place)",
	"strconv.Itoa":             "allocates its result (use strconv.AppendInt)",
	"strconv.FormatInt":        "allocates its result (use strconv.AppendInt)",
	"bufio.NewReaderSize":      "allocates its result (reuse a pooled reader with Reset)",
	"bufio.Reader.ReadString":  "allocates its result (use ReadSlice and parse in place)",
	"bufio.Reader.ReadBytes":   "allocates its result (use ReadSlice and parse in place)",
	"net.conn.File":            fdEscapes,
	"os.File.Fd":               fdEscapes,
	"os.NewFile":               "allocates and registers the descriptor with the runtime poller (wait through the worker's epoll set instead)",
	"net.TCPConn.SyscallConn":  rawConnAllocs,
	"net.UnixConn.SyscallConn": rawConnAllocs,
	"os.File.SyscallConn":      rawConnAllocs,
	"syscall.Conn.SyscallConn": rawConnAllocs,
}

// rawConnAllocs is what is wrong with asking a connection for its RawConn
// per request.
const rawConnAllocs = "allocates a RawConn on every call (take it once per connection or session, and bind its callbacks once)"

// fdEscapes is what is wrong with taking a descriptor out of a live
// connection in order to pass it on.
const fdEscapes = "dups and sets the shared socket blocking; borrow it through the connection's RawConn"

// funcDeclName returns "Func" or "Type.Method".
func funcDeclName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// calleeName returns the hotAllocCalls key of a call: "pkg.Func" for a
// package-level function, "pkg.Type.Method" for a method on a named type,
// "" otherwise.
func calleeName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return ""
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl, lockFree bool) {
	sig, _ := pass.TypesInfo.Defs[fn.Name].Type().(*types.Signature)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := capturedVar(pass, n); capt != "" {
				pass.Reportf(n.Pos(), "closure capturing %q in hot path %s: each instantiation allocates its environment", capt, fn.Name.Name)
			}
			return false // the literal runs elsewhere; only capture matters here
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, lockFree)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isAllocatingConcat(pass, n) {
				pass.Reportf(n.Pos(), "string concatenation in hot path %s allocates", fn.Name.Name)
			}
		case *ast.AssignStmt:
			checkHotAssign(pass, fn, n)
		case *ast.ValueSpec:
			checkHotValueSpec(pass, fn, n)
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map literal in hot path %s allocates", fn.Name.Name)
				}
			}
		case *ast.ReturnStmt:
			checkHotReturn(pass, fn, sig, n)
		}
		return true
	})
}

// capturedVar returns the name of a variable the literal captures from
// its enclosing function, or "". Package-level variables are accessed
// directly, not captured, and cost nothing.
func capturedVar(pass *Pass, lit *ast.FuncLit) string {
	captured := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v.Name()
		}
		return true
	})
	return captured
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, lockFree bool) {
	if pkgPath, name := pkgFunc(pass, call); pkgPath == "fmt" || pkgPath == "log" {
		pass.Reportf(call.Pos(), "%s.%s call in hot path %s allocates (move formatting to a cold helper)", pathBase(pkgPath), name, fn.Name.Name)
		return
	}
	if callee := calleeName(pass, call); callee != "" {
		if fix, bad := hotAllocCalls[callee]; bad {
			pass.Reportf(call.Pos(), "%s call in hot path %s %s", callee, fn.Name.Name, fix)
			return
		}
		if lockFree && hotLockCalls[callee] {
			pass.Reportf(call.Pos(), "%s call in lock-free hot path %s (read through atomics; writers keep the lock)", callee, fn.Name.Name)
			return
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	if tv.IsType() {
		// Conversion: T(x). Boxing happens when T is an interface.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			reportIfBoxes(pass, fn, call.Args[0], "conversion to interface")
		}
		return
	}
	// Builtins: panic(x) boxes its argument; the rest are free.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "panic" && len(call.Args) == 1 {
				reportIfBoxes(pass, fn, call.Args[0], "panic argument")
			}
			return
		}
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) {
			reportIfBoxes(pass, fn, arg, "argument")
		}
	}
}

func checkHotAssign(pass *Pass, fn *ast.FuncDecl, as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 {
		if tv, ok := pass.TypesInfo.Types[as.Lhs[0]]; ok && isStringType(tv.Type) {
			pass.Reportf(as.Pos(), "string concatenation in hot path %s allocates", fn.Name.Name)
		}
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lt, ok := pass.TypesInfo.Types[as.Lhs[i]]
		if !ok || !types.IsInterface(lt.Type) {
			continue
		}
		reportIfBoxes(pass, fn, as.Rhs[i], "assignment to interface")
	}
}

// checkHotValueSpec covers `var x any = v` declarations, the one
// interface-assignment form AssignStmt does not see.
func checkHotValueSpec(pass *Pass, fn *ast.FuncDecl, spec *ast.ValueSpec) {
	for i, name := range spec.Names {
		obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
		if !ok || !types.IsInterface(obj.Type()) {
			continue
		}
		if i < len(spec.Values) {
			reportIfBoxes(pass, fn, spec.Values[i], "assignment to interface")
		}
	}
}

func checkHotReturn(pass *Pass, fn *ast.FuncDecl, sig *types.Signature, ret *ast.ReturnStmt) {
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		if types.IsInterface(sig.Results().At(i).Type()) {
			reportIfBoxes(pass, fn, res, "return of interface result")
		}
	}
}

// reportIfBoxes flags expr when storing it into an interface heap-boxes:
// its concrete type is not pointer-shaped, it is not a constant (those
// box into static data), and it is not already an interface.
func reportIfBoxes(pass *Pass, fn *ast.FuncDecl, expr ast.Expr, context string) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value != nil || tv.IsNil() {
		return
	}
	t := tv.Type
	if types.IsInterface(t) || pointerShaped(t) {
		return
	}
	pass.Reportf(expr.Pos(), "interface boxing of non-pointer %s value (%s) in hot path %s allocates", t.String(), context, fn.Name.Name)
}

// pointerShaped reports whether values of t fit an interface word
// without allocating: pointers, channels, maps, funcs, unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isAllocatingConcat reports whether a + expression concatenates strings
// with at least one non-constant operand (constant folding is free).
func isAllocatingConcat(pass *Pass, be *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[be]
	if !ok || !isStringType(tv.Type) {
		return false
	}
	return tv.Value == nil // whole expression not constant-folded
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
