package trace

import "testing"

func TestWorkloadFlattenMemoizes(t *testing.T) {
	cfg := SmallSynthConfig()
	cfg.Connections = 500
	wl := NewWorkload(NewSynth(cfg).Generate())
	f1 := wl.Flatten()
	if f1 == nil || len(f1.Conns) != wl.PHTTP.Requests() {
		t.Fatal("Flatten did not produce the HTTP/1.0 form")
	}
	if wl.Flatten() != f1 {
		t.Error("Flatten re-derived instead of memoizing")
	}
}
