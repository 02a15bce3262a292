package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Release is a no-op and an uncapped table reports no cap: interning order
// alone decides the IDs.
func TestPinnedInternerLifecycleNoOps(t *testing.T) {
	in := NewInterner()
	a := in.Intern("/a")
	in.Release(a)
	in.Release(a)
	if in.Cap() != 0 || in.Name(a) != "/a" {
		t.Errorf("cap %d, Name(%d) = %q after Release; want 0, /a", in.Cap(), a, in.Name(a))
	}
	if in.Intern("/b") != 2 || in.Intern("/a") != a {
		t.Error("assignment order changed")
	}
}

// TestCappedInternerRejectsZeroCap pins the constructor contract: the
// uncapped table is NewInterner, not a zero cap.
func TestCappedInternerRejectsZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-cap interner did not panic")
		}
	}()
	NewCappedInterner(0)
}

// TestInternerChurnAgainstModel drives a capped interner with a random
// stream over a universe sixteen times its cap, against a map that records
// first-seen order: the first cap distinct targets get IDs 1..cap in that
// order, every later new target gets NoTarget, a known target always
// resolves to its ID, and Len() and HighWater() never pass the cap.
func TestInternerChurnAgainstModel(t *testing.T) {
	const (
		cap      = 64
		universe = 16 * cap
	)
	rng := rand.New(rand.NewSource(42))
	in := NewCappedInterner(cap)
	model := make(map[Target]TargetID)
	for op := 0; op < 200_000; op++ {
		tgt := Target(fmt.Sprintf("/u%d", rng.Intn(universe)))
		want, seen := model[tgt]
		if !seen {
			if len(model) < cap {
				want = TargetID(len(model) + 1)
			}
			model[tgt] = want
		}
		var id TargetID
		if op%2 == 0 {
			id = in.Intern(tgt)
		} else {
			id = in.InternBytes([]byte(tgt))
		}
		if id != want {
			t.Fatalf("op %d: %q got ID %d, first-seen order says %d", op, tgt, id, want)
		}
		if id != NoTarget && in.Name(id) != tgt {
			t.Fatalf("op %d: Name(%d) = %q, want %q", op, id, in.Name(id), tgt)
		}
		if op%1000 == 0 && (in.Len() > cap || int(in.HighWater()) > cap) {
			t.Fatalf("op %d: Len %d, HighWater %d past cap %d", op, in.Len(), in.HighWater(), cap)
		}
	}
	if in.Len() != cap || int(in.HighWater()) != cap {
		t.Errorf("Len %d, HighWater %d; want the cap %d", in.Len(), in.HighWater(), cap)
	}
	for tgt, want := range model {
		if id, ok := in.Lookup(tgt); ok != (want != NoTarget) || id != want {
			t.Errorf("Lookup(%q) = %d,%v, want %d", tgt, id, ok, want)
		}
	}
}

// TestInternerConcurrentChurn is the model test's concurrent half (run it
// under -race): goroutines intern overlapping streams over a universe past
// the cap. Every answer is NoTarget or the one ID the target ever gets,
// names never change, and the table ends exactly full and dense.
func TestInternerConcurrentChurn(t *testing.T) {
	const (
		cap        = 128
		goroutines = 8
		perG       = 20_000
	)
	in := NewCappedInterner(cap)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			got := make(map[Target]TargetID)
			for i := 0; i < perG; i++ {
				tgt := Target(fmt.Sprintf("/c%d", rng.Intn(4*cap)))
				id := in.InternBytes([]byte(tgt))
				if id == NoTarget {
					continue
				}
				if prev, ok := got[tgt]; ok && prev != id {
					t.Errorf("%q resolved to %d, then %d", tgt, prev, id)
					return
				}
				got[tgt] = id
				if in.Name(id) != tgt {
					t.Errorf("Name(%d) = %q, want %q", id, in.Name(id), tgt)
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	if in.Len() != cap || int(in.HighWater()) != cap {
		t.Fatalf("Len %d, HighWater %d; want the cap %d", in.Len(), in.HighWater(), cap)
	}
	names := make(map[Target]bool, cap)
	for id := TargetID(1); id <= cap; id++ {
		name := in.Name(id)
		if names[name] || in.Intern(name) != id {
			t.Fatalf("ID %d (%q) is not the one ID of its target", id, name)
		}
		names[name] = true
	}
}

// A full table answers a new target from the read buffer without
// allocating: no string is made for a target that will not be kept.
func TestInternBytesZeroAllocsPastCap(t *testing.T) {
	in := NewCappedInterner(4)
	for i := 0; i < 4; i++ {
		in.Intern(Target(fmt.Sprintf("/t%d", i)))
	}
	b := []byte("/past-the-cap")
	if n := testing.AllocsPerRun(200, func() {
		if in.InternBytes(b) != NoTarget {
			t.Fatal("a full table interned a new target")
		}
	}); n != 0 {
		t.Errorf("InternBytes past the cap: %v allocs, want 0", n)
	}
}

// InternBytes must be Intern: same IDs on uncapped and capped (past its
// cap too) tables, for hits and misses, interleaving the two forms over
// one table.
func TestInternBytesAgreesWithIntern(t *testing.T) {
	for name, mk := range map[string]func() *Interner{
		"pinned": NewInterner,
		"capped": func() *Interner { return NewCappedInterner(8) },
	} {
		t.Run(name, func(t *testing.T) {
			in, model := mk(), mk()
			for round := 0; round < 3; round++ {
				for i := 0; i < 40; i++ {
					tgt := Target(fmt.Sprintf("/t%d", (i*7+round)%23))
					var id TargetID
					if i%2 == 0 {
						id = in.InternBytes([]byte(tgt))
					} else {
						id = in.Intern(tgt)
					}
					want := model.Intern(tgt)
					if id != want {
						t.Fatalf("round %d target %q: InternBytes path gave ID %d, Intern-only table %d", round, tgt, id, want)
					}
					if id != NoTarget && in.Name(id) != tgt {
						t.Fatalf("ID %d names %q, interned %q", id, in.Name(id), tgt)
					}
				}
			}
			if in.Len() != model.Len() {
				t.Errorf("len %d, Intern-only table %d", in.Len(), model.Len())
			}
		})
	}
}

// A known target is interned from bytes without materializing a string.
func TestInternBytesZeroAllocsOnHit(t *testing.T) {
	b := []byte("/docs/page.html")
	for name, in := range map[string]*Interner{
		"pinned": NewInterner(),
		"capped": NewCappedInterner(4096),
	} {
		in.Intern(Target(b))
		if n := testing.AllocsPerRun(200, func() {
			in.InternBytes(b)
		}); n != 0 {
			t.Errorf("%s: InternBytes hit: %v allocs, want 0", name, n)
		}
	}
}

// The string a miss stores is its own: the caller's buffer may change.
func TestInternBytesCopiesOnMiss(t *testing.T) {
	in := NewInterner()
	b := []byte("/first")
	id := in.InternBytes(b)
	copy(b, "/other")
	if got := in.Name(id); got != "/first" {
		t.Errorf("interned name follows the caller's buffer: %q", got)
	}
	if other := in.InternBytes(b); other == id {
		t.Error("a different target resolved to the first target's ID")
	}
}

// TestPinnedInternerConcurrentInterning drives the uncapped interner's
// lock-free hit path from parallel goroutines over one overlapping target
// set: the table must end dense and consistent — every target resolves to
// exactly one ID in 1..Len(), with Name and Lookup agreeing — no matter how
// the snapshot lookups interleave with the locked misses.
func TestPinnedInternerConcurrentInterning(t *testing.T) {
	const (
		targets    = 1000
		goroutines = 8
	)
	in := NewInterner()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4*targets; i++ {
				tgt := Target(fmt.Sprintf("/p%d", rng.Intn(targets)))
				id := in.Intern(tgt)
				if id <= 0 {
					t.Errorf("Intern(%q) = %d", tgt, id)
					return
				}
				if got := in.Name(id); got != tgt {
					t.Errorf("Name(%d) = %q, want %q", id, got, tgt)
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	if got := in.Len(); got != targets {
		t.Fatalf("Len() = %d, want %d", got, targets)
	}
	if got := int(in.HighWater()); got != targets {
		t.Fatalf("HighWater() = %d, want %d (duplicate slots minted)", got, targets)
	}
	seen := make(map[TargetID]Target, targets)
	for i := 0; i < targets; i++ {
		tgt := Target(fmt.Sprintf("/p%d", i))
		id, ok := in.Lookup(tgt)
		if !ok || id <= 0 || int(id) > targets {
			t.Fatalf("Lookup(%q) = %d,%v, want dense ID", tgt, id, ok)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("ID %d maps to both %q and %q", id, prev, tgt)
		}
		seen[id] = tgt
		if in.Name(id) != tgt {
			t.Fatalf("Name(%d) = %q, want %q", id, in.Name(id), tgt)
		}
	}
}
