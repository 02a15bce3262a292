package dispatch

import (
	"strings"
	"testing"

	"phttp/internal/core"
	"phttp/internal/policy"
)

func TestBuildUnknownPolicy(t *testing.T) {
	_, err := Build(Spec{Policy: "no-such-policy", Nodes: 2})
	if err == nil {
		t.Fatal("Build accepted unknown policy")
	}
	// The error must list the valid names so a typo is self-diagnosing.
	if !strings.Contains(err.Error(), "lardr") || !strings.Contains(err.Error(), "extlard") {
		t.Errorf("unknown-policy error does not list the policy names: %v", err)
	}
}

func TestBuildRejectsUnknownOptionKey(t *testing.T) {
	spec := testSpec("lard")
	spec.Options = Options{"cache-byts": int64(1 << 20)} // typo
	_, err := Build(spec)
	if err == nil {
		t.Fatal("Build accepted an unknown option key")
	}
	for _, want := range []string{"cache-byts", "cache-bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-key error %q should mention %q", err, want)
		}
	}
}

func TestBuildRejectsMistypedOption(t *testing.T) {
	cases := []struct {
		policy string
		opts   Options
	}{
		{"lard", Options{"cache-bytes": "a lot"}},
		{"lard", Options{"disk-queue-low": 1.5}}, // non-integral float
		{"lardr", Options{"l-idle": "wide"}},
		{"extlard", Options{"miss-cost": true}},
		{"extlard", Options{"mechanism": 7}},
		// Only extended LARD drives a mechanism.
		{"lard", Options{"mechanism": "BEforward"}},
		{"lardr", Options{"mechanism": "BEforward"}},
		// WRR takes no options at all.
		{"wrr", Options{"cache-bytes": int64(1 << 20)}},
		{"WRR", Options{"l-idle": 10.0}},
	}
	for _, tc := range cases {
		spec := testSpec(tc.policy)
		spec.Options = tc.opts
		if _, err := Build(spec); err == nil {
			t.Errorf("Build(%s, %v) accepted a mistyped option", tc.policy, tc.opts)
		}
	}
}

func TestBuildValidatesMechanismName(t *testing.T) {
	spec := testSpec("extlard")
	spec.Options = Options{"mechanism": "teleport"}
	if _, err := Build(spec); err == nil {
		t.Error("Build accepted an unknown mechanism name")
	}
}

// TestResolvePrecedence pins the resolution order documented on Spec: an
// option key wins, then the typed field (Params as a unit), then
// policy.DefaultParams().
func TestResolvePrecedence(t *testing.T) {
	typed := policy.Params{LIdle: 10, LOverload: 90, MissCost: 30, DiskQueueLow: 3}
	spec := Spec{
		Policy:     "ExtLARD",
		Nodes:      4,
		CacheBytes: 1 << 20,
		Params:     typed,
		Mechanism:  core.BEForwarding,
		Options:    Options{"miss-cost": 55.0, "cache-bytes": int64(2 << 20)},
	}
	got, err := Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := typed
	want.MissCost = 55
	if got.Policy != "extlard" || got.Params != want || got.CacheBytes != 2<<20 ||
		got.Mechanism != core.BEForwarding || got.Options != nil {
		t.Errorf("options over typed fields: %+v", got)
	}

	// No options: the typed fields stand as given.
	spec.Options = nil
	if got, err = Resolve(spec); err != nil || got.Params != typed || got.CacheBytes != 1<<20 {
		t.Errorf("typed fields alone: %+v, %v", got, err)
	}

	// Neither: DefaultParams, except where an option says otherwise.
	got, err = Resolve(Spec{Policy: "lard", Nodes: 4, Options: Options{"l-idle": 7.0}})
	want = policy.DefaultParams()
	want.LIdle = 7
	if err != nil || got.Params != want || got.CacheBytes != 0 {
		t.Errorf("defaults under an option: %+v, %v", got, err)
	}

	// The mechanism option wins over the typed field.
	spec.Options = Options{"mechanism": "relayFE"}
	if got, err = Resolve(spec); err != nil || got.Mechanism != core.RelayFrontEnd {
		t.Errorf("mechanism option: %v, %v", got.Mechanism, err)
	}
}

// TestJSONNumericCoercion pins the scenario-file path: JSON decodes every
// number as float64, and integral floats must coerce to the integer keys.
func TestJSONNumericCoercion(t *testing.T) {
	spec := testSpec("lard")
	spec.Options = Options{"cache-bytes": 4194304.0, "disk-queue-low": 5.0, "l-idle": 12.0, "l-overload": 100}
	got, err := Resolve(spec)
	if err != nil {
		t.Fatalf("Resolve with JSON-style numbers: %v", err)
	}
	if got.CacheBytes != 4<<20 || got.Params.DiskQueueLow != 5 || got.Params.LIdle != 12 || got.Params.LOverload != 100 {
		t.Errorf("resolved %+v", got)
	}
	if _, err := Build(spec); err != nil {
		t.Errorf("Build: %v", err)
	}
}

func TestUnknownOptionErrorListsValidKeys(t *testing.T) {
	spec := testSpec("lardr")
	spec.Options = Options{"l-idel": 3.0}
	_, err := Build(spec)
	if err == nil {
		t.Fatal("unknown key accepted")
	}
	const want = "(valid options: cache-bytes, disk-queue-low, l-idle, l-overload, miss-cost)"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should list the valid keys, sorted: %s", err, want)
	}
}
