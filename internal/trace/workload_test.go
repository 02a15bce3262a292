package trace

import "testing"

func workloadTestConfig() SynthConfig {
	cfg := SmallSynthConfig()
	cfg.Connections = 500
	return cfg
}

func TestConfigHashNormalizesDefaults(t *testing.T) {
	a := workloadTestConfig()
	b := a
	b.BlockSize = DefaultBlockSize
	b.GenVersion = GenVersionBlocks
	b.MaxBatch = 4
	a.BlockSize, a.GenVersion = 0, 0
	if ConfigHash(a) != ConfigHash(b) {
		t.Error("zero defaults and explicit defaults hash differently")
	}
	c := a
	c.BlockSize = 128
	if ConfigHash(a) == ConfigHash(c) {
		t.Error("BlockSize not part of the config hash")
	}
	d := a
	d.Connections++
	if ConfigHash(a) == ConfigHash(d) {
		t.Error("Connections not part of the config hash")
	}
}

func TestWorkloadFlattenMemoizes(t *testing.T) {
	wl := NewWorkload(NewSynth(workloadTestConfig()).Generate())
	f1 := wl.Flatten()
	if f1 == nil || len(f1.Conns) != wl.PHTTP.Requests() {
		t.Fatal("Flatten did not produce the HTTP/1.0 form")
	}
	if wl.Flatten() != f1 {
		t.Error("Flatten re-derived instead of memoizing")
	}
}
