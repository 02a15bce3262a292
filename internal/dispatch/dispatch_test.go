package dispatch

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"phttp/internal/core"
	"phttp/internal/policy"
)

// internedReq builds a request interned through in, as the drivers do at
// the edge (trace loader, HTTP parser).
func internedReq(in *core.Interner, target string, size int64) core.Request {
	t := core.Target(target)
	return core.Request{Target: t, ID: in.Intern(t), Size: size}
}

func testSpec(pol string) Spec {
	return Spec{
		Policy:     pol,
		Nodes:      4,
		CacheBytes: 1 << 20,
		Params:     policy.DefaultParams(),
		Mechanism:  core.BEForwarding,
	}
}

func TestRegistryNames(t *testing.T) {
	want := []string{"extlard", "lard", "lardr", "wrr"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCanonicalNormalizes(t *testing.T) {
	for in, want := range map[string]string{
		"wrr": "wrr", "WRR": "wrr", " ExtLARD ": "extlard", "LardR": "lardr",
	} {
		got, err := Canonical(in)
		if err != nil || got != want {
			t.Errorf("Canonical(%q) = %q, %v, want %q", in, got, err, want)
		}
	}
}

func TestUnknownPolicyErrorListsValidNames(t *testing.T) {
	_, err := Build(testSpec("lrad"))
	if err == nil {
		t.Fatal("Build accepted unknown policy")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid policy %q", err, name)
		}
	}
}

func TestBuildRejectsZeroNodes(t *testing.T) {
	spec := testSpec("wrr")
	spec.Nodes = 0
	if _, err := Build(spec); err == nil {
		t.Error("Build accepted zero nodes")
	}
}

func TestBuildMatchesRegistryName(t *testing.T) {
	for _, name := range Names() {
		pol, err := Build(testSpec(name))
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		if pol == nil || pol.Loads().Nodes() != 4 {
			t.Errorf("Build(%q) returned wrong policy instance", name)
		}
	}
}

func TestEngineLifecycle(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			eng, err := NewEngine(testSpec(name))
			if err != nil {
				t.Fatal(err)
			}
			if eng.PolicyName() != name {
				t.Errorf("PolicyName() = %q, want %q", eng.PolicyName(), name)
			}
			in := eng.Interner()
			var conns []*Conn
			for i := 0; i < 16; i++ {
				first := internedReq(in, fmt.Sprintf("/t%d", i), 4<<10)
				c, handling := eng.ConnOpen(first)
				if handling == core.NoNode || c.Handling() != handling {
					t.Fatalf("ConnOpen: handling %v, conn says %v", handling, c.Handling())
				}
				as := eng.AssignBatch(c, core.Batch{first, internedReq(in, "/shared", 4<<10)})
				if len(as) != 2 {
					t.Fatalf("AssignBatch returned %d assignments, want 2", len(as))
				}
				conns = append(conns, c)
			}
			loads := eng.Policy().Loads()
			total := 0
			for n := 0; n < loads.Nodes(); n++ {
				total += loads.Conns(core.NodeID(n))
			}
			if total != 16 || eng.Active() != 16 {
				t.Errorf("tracked %d conns / %d active, want 16/16", total, eng.Active())
			}
			if eng.Requests() != 32 {
				t.Errorf("Requests() = %d, want 32", eng.Requests())
			}
			for _, c := range conns {
				eng.BatchDone(c)
				eng.ConnClose(c)
				eng.ConnClose(c) // double close must be absorbed
			}
			if eng.Active() != 0 {
				t.Errorf("Active() = %d after closing all", eng.Active())
			}
			for n := 0; n < loads.Nodes(); n++ {
				if loads.Conns(core.NodeID(n)) != 0 {
					t.Errorf("node %d still holds %d conns", n, loads.Conns(core.NodeID(n)))
				}
			}
			if got := loads.Total(); math.Abs(got) > 1e-9 {
				t.Errorf("Total() = %v after closing all, want 0", got)
			}
		})
	}
}

// TestEngineConcurrentStress hammers the engine from many goroutines with
// mixed ConnOpen/AssignBatch/BatchDone/ConnClose traffic plus concurrent
// disk-queue feedback, then asserts the load-tracker and mapping invariants:
// no lost connection counts, no leaked load units, mapping within budget.
// Run under -race this is the acceptance test for the lock-free dispatch
// path.
func TestEngineConcurrentStress(t *testing.T) {
	mechs := map[string]core.Mechanism{
		"wrr":     core.SingleHandoff,
		"lard":    core.SingleHandoff,
		"lardr":   core.SingleHandoff,
		"extlard": core.BEForwarding,
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			spec := testSpec(name)
			spec.Nodes = 8
			spec.Mechanism = mechs[name]
			eng, err := NewEngine(spec)
			if err != nil {
				t.Fatal(err)
			}
			const (
				goroutines   = 8
				connsPerGoro = 300
			)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					zipf := rand.NewZipf(rng, 1.3, 1, 4096)
					in := eng.Interner()
					for i := 0; i < connsPerGoro; i++ {
						first := internedReq(in, fmt.Sprintf("/z%d", zipf.Uint64()), int64(rng.Intn(16<<10))+1)
						c, _ := eng.ConnOpen(first)
						batches := rng.Intn(3) + 1
						for b := 0; b < batches; b++ {
							batch := make(core.Batch, rng.Intn(4)+1)
							for j := range batch {
								batch[j] = internedReq(in, fmt.Sprintf("/z%d", zipf.Uint64()), int64(rng.Intn(16<<10))+1)
							}
							eng.AssignBatch(c, batch)
						}
						if rng.Intn(2) == 0 {
							eng.BatchDone(c)
						}
						if rng.Intn(16) == 0 {
							eng.ReportDiskQueue(core.NodeID(rng.Intn(spec.Nodes)), rng.Intn(8))
						}
						eng.ConnClose(c)
					}
				}(int64(g) + 1)
			}
			wg.Wait()

			if eng.Active() != 0 {
				t.Errorf("Active() = %d after all closes", eng.Active())
			}
			if got, want := eng.Connections(), int64(goroutines*connsPerGoro); got != want {
				t.Errorf("Connections() = %d, want %d", got, want)
			}
			loads := eng.Policy().Loads()
			for n := 0; n < loads.Nodes(); n++ {
				if c := loads.Conns(core.NodeID(n)); c != 0 {
					t.Errorf("node %d: %d connection counts lost or leaked", n, c)
				}
				// Fractional 1/N charges cancel pairwise; interleaved CAS
				// float adds can leave only rounding residue.
				if l := loads.Load(core.NodeID(n)); math.Abs(l) > 1e-6 {
					t.Errorf("node %d: %v load units leaked", n, l)
				}
			}
			if ext, ok := eng.Policy().(*policy.ExtLARD); ok {
				m := ext.Mapping()
				for n := 0; n < m.Nodes(); n++ {
					if b := m.MappedBytes(core.NodeID(n)); b > spec.CacheBytes {
						t.Errorf("node %d mapping holds %d bytes, budget %d", n, b, spec.CacheBytes)
					}
				}
			}
		})
	}
}
