// Package simcore is the required-annotation fixture for the simulator's
// event loop: type-checked under the real simcore import path, where
// hotpathRequired lists Engine.Step, Engine.Call, Engine.enqueue and
// Resource.Call. Step kept its annotation, Call lost it, the lane enqueue
// was renamed away, and Resource.Call is gone altogether.
package simcore // want "Engine.enqueue, required to be a //phttp:hotpath function, is not declared in phttp/internal/simcore" "Resource.Call, required to be a //phttp:hotpath function, is not declared in phttp/internal/simcore"

type Engine struct{ n int }

//phttp:hotpath
func (e *Engine) Step() bool { return e.n > 0 }

func (e *Engine) Call(t int64) { // want "Engine.Call is on the per-request path and must be annotated //phttp:hotpath"
	e.n++
}

// append is what enqueue was renamed to.
//
//phttp:hotpath
func (e *Engine) append(t int64) { e.n++ }
