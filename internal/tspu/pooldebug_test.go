//go:build pooldebug

package tspu

import "testing"

// mustPanic runs fn and fails the test unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic under -tags=pooldebug", what)
		}
	}()
	fn()
}

// TestUseAfterReleasePanics holds a stale *flowEntry across a release and
// proves the poisoned record traps on its next datapath touch.
func TestUseAfterReleasePanics(t *testing.T) {
	ct := newShardedConntrack(DefaultTimeouts(), 1)
	sh := &ct.shards[0]
	e := sh.allocEntry()
	sh.release(e)
	mustPanic(t, "activeBlock on a released entry", func() { e.activeBlock(0) })
}

func TestDoubleReleasePanics(t *testing.T) {
	ct := newShardedConntrack(DefaultTimeouts(), 1)
	sh := &ct.shards[0]
	e := sh.allocEntry()
	sh.release(e)
	mustPanic(t, "second release of the same entry", func() { sh.release(e) })
}

// TestPoolReuseUnpoisons proves the poison is scrubbed on reuse: the normal
// alloc→release→alloc cycle stays panic-free and hands out zeroed records.
func TestPoolReuseUnpoisons(t *testing.T) {
	ct := newShardedConntrack(DefaultTimeouts(), 1)
	sh := &ct.shards[0]
	e := sh.allocEntry()
	sh.release(e)
	e2 := sh.allocEntry()
	if e2 != e {
		t.Fatalf("pool did not reuse the released entry")
	}
	if e2.state == poisonedState || e2.immune != 0 || e2.expires != 0 {
		t.Fatalf("reused entry still carries poison: %+v", e2)
	}
	e2.activeBlock(0) // must not panic
}
