package sim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-broken order[%d] = %d, want %d", i, got, i)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	s := New()
	var at time.Duration
	s.At(time.Second, func() {
		s.After(2*time.Second, func() { at = s.Now() })
	})
	s.Run()
	if at != 3*time.Second {
		t.Fatalf("nested After fired at %v, want 3s", at)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	fired := false
	s.At(10*time.Second, func() { fired = true })
	s.RunUntil(5 * time.Second)
	if fired {
		t.Fatal("event beyond deadline fired")
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", s.Now())
	}
	s.RunUntil(15 * time.Second)
	if !fired {
		t.Fatal("event not fired after extending deadline")
	}
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.At(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if s.Processed() != 0 {
		t.Fatalf("processed = %d, want 0", s.Processed())
	}
}

func TestStopAfterFire(t *testing.T) {
	s := New()
	tm := s.At(time.Second, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(time.Millisecond, func() {})
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.At(time.Second, func() { n++ })
	s.At(2*time.Second, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			continue
		}
		same = false
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandForkIndependence(t *testing.T) {
	r := NewRand(1)
	f1 := r.Fork("alpha")
	r2 := NewRand(1)
	f2 := r2.Fork("alpha")
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			t.Fatal("fork of same seed/name diverged")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSampleDistinct(t *testing.T) {
	r := NewRand(13)
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	got := Sample(r, xs, 10)
	if len(got) != 10 {
		t.Fatalf("Sample returned %d elements", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate in sample: %v", got)
		}
		seen[v] = true
	}
	// Oversampling returns everything.
	if len(Sample(r, xs, 1000)) != 100 {
		t.Fatal("oversample did not return all elements")
	}
}

// TestSampleMatchesShuffledCopy pins Sample to the draws and result of
// shuffling a copy of xs and keeping its first k elements.
func TestSampleMatchesShuffledCopy(t *testing.T) {
	xs := make([]string, 57)
	for i := range xs {
		xs[i] = string(rune('A' + i))
	}
	for _, k := range []int{0, 1, 20, 57, 90} {
		a, b := NewRand(uint64(k)+5), NewRand(uint64(k)+5)
		cp := append([]string(nil), xs...)
		a.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		want := cp[:min(k, len(cp))]
		got := Sample(b, xs, k)
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: Sample = %v, want %v", k, got, want)
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("k=%d: Sample took a different number of draws", k)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(17)
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	frac := float64(n) / trials
	if frac < 0.23 || frac > 0.27 {
		t.Fatalf("Bool(0.25) rate = %v", frac)
	}
}

func TestIntRange(t *testing.T) {
	r := NewRand(19)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if r.IntRange(3, 3) != 3 {
		t.Fatal("degenerate range")
	}
}

func TestPropertyEventOrdering(t *testing.T) {
	// Whatever order events are scheduled in, they must execute in
	// timestamp order with scheduling order breaking ties.
	if err := quick.Check(func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		if len(delays) > 200 {
			delays = delays[:200]
		}
		s := New()
		type fired struct {
			at  time.Duration
			seq int
		}
		var order []fired
		for i, d := range delays {
			i, at := i, time.Duration(d)*time.Millisecond
			s.At(at, func() { order = append(order, fired{at, i}) })
		}
		s.Run()
		if len(order) != len(delays) {
			return false
		}
		for i := 1; i < len(order); i++ {
			if order[i].at < order[i-1].at {
				return false
			}
			if order[i].at == order[i-1].at && order[i].seq < order[i-1].seq {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
