package trace

// Workload pairs the P-HTTP trace with its HTTP/1.0 flattening so sweep
// drivers and load generators take whichever form a grid point needs
// without re-flattening per sweep.
type Workload struct {
	// PHTTP is the structured persistent-connection trace.
	PHTTP *Trace
	// flat is the HTTP/1.0 form (one request per connection), derived on
	// first use by Flatten.
	flat *Trace
}

// NewWorkload wraps a trace as a workload with the flattening derived
// lazily.
func NewWorkload(tr *Trace) *Workload { return &Workload{PHTTP: tr} }

// Flatten returns the HTTP/1.0 form, deriving and memoizing it on first
// use. Not safe for concurrent first calls; prepare the workload before
// fanning out workers (the sweep drivers do).
func (w *Workload) Flatten() *Trace {
	if w.flat == nil {
		w.flat = w.PHTTP.Flatten10()
	}
	return w.flat
}
