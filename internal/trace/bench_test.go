package trace

import "testing"

// Sweep-startup benchmarks: catalog build plus connection generation
// (serial and block-parallel), on a small workload.
// The benchmark module's setup_s times the full-size one; these keep the
// paths under bench-smoke in CI.

func benchSynthConfig() SynthConfig {
	cfg := SmallSynthConfig()
	cfg.Connections = 2000
	return cfg
}

func BenchmarkSynthGenerateSerial(b *testing.B) {
	cfg := benchSynthConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSynth(cfg).GenerateParallel(1)
	}
}

func BenchmarkSynthGenerateParallel(b *testing.B) {
	cfg := benchSynthConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSynth(cfg).GenerateParallel(0)
	}
}
