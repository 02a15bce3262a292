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

// BenchmarkSynthBuild is the whole build a sweep driver makes before its
// first event: the default catalog, 10 000 connections generated and
// interned, and the HTTP/1.0 flattening.
func BenchmarkSynthBuild(b *testing.B) {
	cfg := DefaultSynthConfig()
	cfg.Connections = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewWorkload(NewSynth(cfg).Generate()).Flatten()
	}
}
