package scenario

import (
	"strings"
	"testing"
)

func TestBuiltinNames(t *testing.T) {
	want := []string{"churn-crash", "default", "fig13", "fig3", "fig7", "fig8", "slo-tail"}
	got := BuiltinNames()
	if len(got) != len(want) {
		t.Fatalf("BuiltinNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("BuiltinNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBuiltinUnknown(t *testing.T) {
	_, err := Builtin("fig99")
	if err == nil || !strings.Contains(err.Error(), "fig7") {
		t.Fatalf("unknown-builtin error should list valid names, got %v", err)
	}
}

func TestBuiltinsParseAndValidate(t *testing.T) {
	for _, name := range BuiltinNames() {
		s, err := Builtin(name)
		if err != nil {
			t.Errorf("Builtin(%q): %v", name, err)
			continue
		}
		if s.Name != name {
			t.Errorf("Builtin(%q).Name = %q", name, s.Name)
		}
		if s.Doc == "" {
			t.Errorf("Builtin(%q) has no doc line", name)
		}
		grid, err := s.ToSimGrid()
		if err != nil || len(grid) == 0 {
			t.Errorf("Builtin(%q) compiles to %d points: %v", name, len(grid), err)
		}
		for _, p := range grid {
			if err := p.Config.Validate(); err != nil {
				t.Errorf("Builtin(%q) point (%s, %g): %v", name, p.Label, p.X, err)
			}
		}
	}
}

// minimal returns the smallest valid spec, for mutation tests.
func minimal() string {
	return `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":2}}`
}

func TestParseMinimal(t *testing.T) {
	s, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.ToSimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 2 || cfg.Combo.Policy != "wrr" || !cfg.Combo.PHTTP {
		t.Errorf("compiled config %+v", cfg)
	}
	if cfg.Combo.Name != "wrr-PHTTP" {
		t.Errorf("default label = %q, want wrr-PHTTP", cfg.Combo.Name)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"missing version":    `{"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":2}}`,
		"future version":     `{"version":9,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":2}}`,
		"unknown field":      `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":2},"wat":1}`,
		"case-variant key":   `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":2,"cacheMb":4}}`,
		"unknown policy":     `{"version":1,"workload":{},"policy":{"name":"lrad"},"cluster":{"nodes":2}}`,
		"no policy":          `{"version":1,"workload":{},"cluster":{"nodes":2}}`,
		"unknown option":     `{"version":1,"workload":{},"policy":{"name":"lard","options":{"cache-byts":1}},"cluster":{"nodes":2}}`,
		"mistyped option":    `{"version":1,"workload":{},"policy":{"name":"lard","options":{"l-idle":"wide"}},"cluster":{"nodes":2}}`,
		"mechanism option":   `{"version":1,"workload":{},"policy":{"name":"extlard","options":{"mechanism":"relayFE"}},"cluster":{"nodes":2}}`,
		"bad mechanism":      `{"version":1,"workload":{},"policy":{"name":"wrr"},"mechanism":"teleport","cluster":{"nodes":2}}`,
		"bad server":         `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":2},"server":{"model":"iis"}}`,
		"no nodes":           `{"version":1,"workload":{},"policy":{"name":"wrr"}}`,
		"negative nodes":     `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":-1}}`,
		"bad warmup":         `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":2,"warmupFrac":1.5}}`,
		"combos with policy": `{"version":1,"workload":{},"policy":{"name":"wrr"},"sweep":{"nodes":[1],"combos":["WRR"]}}`,
		"combos without nodes axis": `{"version":1,"workload":{},
			"sweep":{"combos":["WRR"]}}`,
		"unknown combo":    `{"version":1,"workload":{},"sweep":{"nodes":[1],"combos":["WRR-TELNET"]}}`,
		"loads and nodes":  `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":1},"sweep":{"nodes":[1],"loads":[2]}}`,
		"zero load point":  `{"version":1,"workload":{},"policy":{"name":"wrr"},"cluster":{"nodes":1},"sweep":{"loads":[0]}}`,
		"trailing brace":   minimal() + `}`,
		"trailing object":  minimal() + minimal(),
		"trailing garbage": minimal() + ` x`,
	}
	for label, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: Parse accepted %s", label, src)
		}
	}
}

// TestParseRejectsTraceCache: a workload is its synth config, so neither
// traceCache nor traceFile is a workload field; a spec naming either fails
// to parse, and the error names the field.
func TestParseRejectsTraceCache(t *testing.T) {
	for _, field := range []string{"traceCache", "traceFile"} {
		_, err := Parse([]byte(`{"version":1,"workload":{"` + field + `":"b"},"policy":{"name":"wrr"},"cluster":{"nodes":2}}`))
		if want := `unknown field "` + field + `"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse error = %v, want one containing %s", err, want)
		}
	}
}

func TestSynthConfigOverrides(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,
		"workload":{"synth":{"seed":7,"connections":1234,"pages":100,"objects":200,"clients":50}},
		"policy":{"name":"wrr"},"cluster":{"nodes":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.SynthConfig()
	if cfg.Seed != 7 || cfg.Connections != 1234 || cfg.Pages != 100 || cfg.Objects != 200 || cfg.Clients != 50 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	// Unset knobs keep the calibrated defaults.
	if cfg.ZipfAlpha == 0 || cfg.MaxBatch == 0 {
		t.Errorf("defaults lost: %+v", cfg)
	}
}

func TestLoadsSweep(t *testing.T) {
	if loads, ok := mustBuiltin(t, "fig3").LoadsSweep(); !ok || len(loads) != 13 {
		t.Errorf("fig3 LoadsSweep = %v, %v", loads, ok)
	}
	if _, ok := mustBuiltin(t, "fig7").LoadsSweep(); ok {
		t.Error("fig7 is not a loads sweep")
	}
}

func mustBuiltin(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestToSimConfigRejectsGrids(t *testing.T) {
	if _, err := mustBuiltin(t, "fig7").ToSimConfig(); err == nil {
		t.Error("ToSimConfig accepted a grid scenario")
	}
}

func TestClusterOverridesApply(t *testing.T) {
	s, err := Parse([]byte(`{"version":1,"workload":{},
		"policy":{"name":"lard","options":{"l-idle":20.0}},
		"cluster":{"nodes":3,"connsPerNode":8,"cacheMB":16,"warmupFrac":0.1,"feSpeedup":2,"clients":12}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.ToSimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ConnsPerNode != 8 || cfg.CacheBytes != 16<<20 || cfg.WarmupFrac != 0.1 || cfg.FESpeedup != 2 {
		t.Errorf("cluster overrides lost: %+v", cfg)
	}
	if cfg.PolicyOptions["l-idle"] != 20.0 {
		t.Errorf("policy options lost: %v", cfg.PolicyOptions)
	}
}

func TestLoadOrBuiltin(t *testing.T) {
	if _, err := LoadOrBuiltin("fig7"); err != nil {
		t.Errorf("builtin by name: %v", err)
	}
	if _, err := LoadOrBuiltin("no-such-scenario"); err == nil {
		t.Error("accepted unknown name")
	}
	if _, err := LoadOrBuiltin("no/such/file.json"); err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("path-looking argument should report the file error, got %v", err)
	}
	dir := t.TempDir()
	path := dir + "/exp.json"
	if err := writeFile(path, minimal()); err != nil {
		t.Fatal(err)
	}
	s, err := LoadOrBuiltin(path)
	if err != nil || s.Cluster.Nodes != 2 {
		t.Errorf("LoadOrBuiltin(file) = %+v, %v", s, err)
	}
}
