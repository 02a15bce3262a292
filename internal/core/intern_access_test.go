package core

import (
	"fmt"
	"reflect"
	"testing"
)

// TestAcquireLiveAndLimbo covers the two non-panicking Acquire paths: the
// lock-free refcount bump on a live entry, and the locked 0→1 revival of
// a limbo entry (which must unlink it from the LRU list).
func TestAcquireLiveAndLimbo(t *testing.T) {
	in := NewEvictableInterner(8)
	a := in.Intern("/a")
	in.Acquire(a) // live: lock-free bump
	if got := in.Refs(a); got != 2 {
		t.Fatalf("Refs after Intern+Acquire = %d, want 2", got)
	}
	in.Release(a)
	in.Release(a)
	if got := in.Refs(a); got != 0 {
		t.Fatalf("Refs after draining = %d, want 0 (limbo)", got)
	}
	in.Acquire(a) // limbo: locked revival
	if got := in.Refs(a); got != 1 {
		t.Fatalf("Refs after revival = %d, want 1", got)
	}
	if got := in.Name(a); got != "/a" {
		t.Fatalf("Name after revival = %q", got)
	}
	in.Release(a)
}

// TestAcquirePanicsOnUnassigned pins the protocol: acquiring an ID the
// interner never handed out is a driver bug.
func TestAcquirePanicsOnUnassigned(t *testing.T) {
	in := NewEvictableInterner(8)
	in.Intern("/a")
	defer func() {
		if recover() == nil {
			t.Error("Acquire of a never-assigned ID did not panic")
		}
	}()
	in.Acquire(99)
}

// TestAppendNames covers the bulk ID→name accessor on both interner
// shapes: a bulk-loaded pinned table (the trace decoder's
// NewInternerFromNames) and a capped table with a dead slot, which must
// appear as an empty string to keep positions aligned with IDs.
func TestAppendNames(t *testing.T) {
	names := []Target{"/x", "/y", "/z"}
	pinned := NewInternerFromNames(append([]Target(nil), names...))
	if got := pinned.AppendNames(nil); !reflect.DeepEqual(got, names) {
		t.Errorf("pinned AppendNames = %v, want %v", got, names)
	}
	// Appending onto an existing prefix must keep it and not reallocate
	// when capacity suffices.
	dst := make([]Target, 1, 8)
	dst[0] = "prefix"
	got := pinned.AppendNames(dst)
	if len(got) != 4 || got[0] != "prefix" || got[3] != "/z" {
		t.Errorf("AppendNames onto prefix = %v", got)
	}

	capped := NewEvictableInterner(1)
	a := capped.Intern("/a")
	b := capped.Intern("/b") // overflow while /a is referenced
	capped.Release(a)
	capped.Release(b)
	capped.Acquire(b) // keep /b live so Compact kills /a, not both
	capped.Compact()
	want := []Target{"", "/b"} // dead slot holds position, empty name
	if got := capped.AppendNames(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("capped AppendNames = %v, want %v", got, want)
	}
	capped.Release(b)
}

// TestRefsDiagnostics covers the Refs accessor across interner modes and
// slot states.
func TestRefsDiagnostics(t *testing.T) {
	pinned := NewInterner()
	id := pinned.Intern("/a")
	if got := pinned.Refs(id); got != 0 {
		t.Errorf("pinned Refs = %d, want 0", got)
	}
	in := NewEvictableInterner(1)
	a := in.Intern("/a")
	b := in.Intern("/b")
	if got := in.Refs(a); got != 1 {
		t.Errorf("live Refs = %d, want 1", got)
	}
	if got := in.Refs(0); got != 0 {
		t.Errorf("Refs(0) = %d, want 0", got)
	}
	if got := in.Refs(99); got != 0 {
		t.Errorf("out-of-range Refs = %d, want 0", got)
	}
	in.Release(a)
	in.Compact() // /a zero-ref and over cap: killed, slot dead
	if got := in.Refs(a); got != -1 {
		t.Errorf("dead Refs = %d, want -1", got)
	}
	in.Release(b)
}

// TestNamePanicsOnDead pins Name's recycled-ID panic.
func TestNamePanicsOnDead(t *testing.T) {
	in := NewEvictableInterner(1)
	a := in.Intern("/a")
	b := in.Intern("/b")
	in.Release(a)
	in.Compact()
	defer func() {
		if recover() == nil {
			t.Error("Name of a dead ID did not panic")
		}
		in.Release(b)
	}()
	in.Name(a)
}

// TestEvictableInternerRejectsZeroCap pins the constructor contract.
func TestEvictableInternerRejectsZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-cap evictable interner did not panic")
		}
	}()
	NewEvictableInternerStripes(0, 4)
}

// InternBytes must be Intern: same IDs, same reference counts, on pinned,
// capped and striped tables, for hits, misses, limbo revivals and recycled
// slots — interleaving the two forms over one table.
func TestInternBytesAgreesWithIntern(t *testing.T) {
	for name, mk := range map[string]func() *Interner{
		"pinned":         NewInterner,
		"capped":         func() *Interner { return NewEvictableInterner(8) },
		"capped-striped": func() *Interner { return NewEvictableInternerStripes(4096, 8) },
		"bulk-loaded":    func() *Interner { return NewInternerFromNames([]Target{"/t0", "/t1", "/t2"}) },
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
					if got := in.Name(id); got != tgt {
						t.Fatalf("ID %d names %q, interned %q", id, got, tgt)
					}
					if in.Refs(id) != model.Refs(want) {
						t.Fatalf("target %q: refs %d, want %d", tgt, in.Refs(id), model.Refs(want))
					}
					in.Release(id)
					model.Release(want)
				}
			}
			if in.Len() != model.Len() || in.Limbo() != model.Limbo() {
				t.Errorf("len/limbo %d/%d, Intern-only table %d/%d", in.Len(), in.Limbo(), model.Len(), model.Limbo())
			}
		})
	}
}

// A known target is interned from bytes without materializing a string.
func TestInternBytesZeroAllocsOnHit(t *testing.T) {
	b := []byte("/docs/page.html")
	for name, in := range map[string]*Interner{
		"pinned": NewInterner(),
		"capped": NewEvictableInternerStripes(4096, 4),
	} {
		held := in.Intern(Target(b)) // a live reference keeps the capped hit lock-free
		if n := testing.AllocsPerRun(200, func() {
			in.Release(in.InternBytes(b))
		}); n != 0 {
			t.Errorf("%s: InternBytes hit: %v allocs, want 0", name, n)
		}
		in.Release(held)
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
