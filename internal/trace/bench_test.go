package trace

import (
	"bytes"
	"testing"
)

// Sweep-startup benchmarks: catalog build plus connection generation
// (serial and block-parallel) and the binary decode, on a small workload.
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

// The decode benchmarks isolate ReadBinaryBytes per layout: the nested
// P-HTTP structure and the layoutSingle flattened form.

func benchEncoded(b *testing.B, flat bool) []byte {
	b.Helper()
	tr := NewSynth(benchSynthConfig()).Generate()
	if flat {
		tr = tr.Flatten10()
	}
	var buf bytes.Buffer
	if _, err := WriteBinary(&buf, tr, 1); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkReadBinaryPHTTP(b *testing.B) {
	data := benchEncoded(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadBinaryBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinaryFlat(b *testing.B) {
	data := benchEncoded(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadBinaryBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}
