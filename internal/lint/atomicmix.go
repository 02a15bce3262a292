package lint

import (
	"go/ast"
	"go/types"
)

// NewAtomicmix returns the atomicmix analyzer: no package may use a
// package-level function of sync/atomic (AddInt64, LoadPointer, …),
// whether it calls one or takes it as a value. A field reached through
// such a function can also be read or written plainly, and that mix
// races under contention. A typed atomic (atomic.Int64,
// atomic.Pointer[T], atomic.Value) has no plain access, so code that
// uses only typed atomics cannot write the mix; their methods stay
// silent. The rule decides each package alone.
func NewAtomicmix() *Analyzer {
	a := &Analyzer{
		Name: "atomicmix",
		Doc:  "sync/atomic is used through typed atomics, never its package-level functions",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
					fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(id.Pos(), "sync/atomic.%s: use a typed atomic (atomic.Int64, atomic.Pointer[T], …), which admits no plain access to mix with it", fn.Name())
				}
				return true
			})
		}
		return nil
	}
	return a
}
