package tspu

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
)

// Allocation budgets for the per-packet datapath. These pin the tentpole's
// contract — the device's steady-state hot path never touches the heap — so a
// regression shows up as a failing test, not just a drifting benchmark.

func allocDevice() (*Device, *sim.Sim) {
	s := sim.New()
	d := NewDevice(Config{Sim: s, LocalDir: netem.AtoB})
	ctl := NewController(nil)
	ctl.Register(d)
	ctl.Update(func(p *Policy) { p.SNI1Domains.Add("facebook.com") })
	return d, s
}

func TestDevicePassThroughZeroAllocs(t *testing.T) {
	d, s := allocDevice()
	pipe := nullPipe{s: s}
	data := packet.NewTCP(packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"),
		40000, 443, packet.FlagsPSHACK, 1, 1, make([]byte, 1400))
	d.Handle(pipe, data, netem.AtoB) // warm up: create the flow entry
	allocs := testing.AllocsPerRun(500, func() {
		d.Handle(pipe, data, netem.AtoB)
	})
	if allocs != 0 {
		t.Fatalf("pass-through Handle allocates %v/op, want 0", allocs)
	}
}

func TestDeviceNonMatchingClientHelloZeroAllocs(t *testing.T) {
	d, s := allocDevice()
	pipe := nullPipe{s: s}
	ch := (&tlsx.ClientHelloSpec{ServerName: "not-blocked.example"}).Build()
	trig := packet.NewTCP(packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"),
		40000, 443, packet.FlagsPSHACK, 1, 1, ch)
	d.Handle(pipe, trig, netem.AtoB)
	allocs := testing.AllocsPerRun(500, func() {
		d.Handle(pipe, trig, netem.AtoB)
	})
	if allocs != 0 {
		t.Fatalf("non-matching ClientHello Handle allocates %v/op, want 0", allocs)
	}
}

func TestDeviceFlowChurnZeroAllocs(t *testing.T) {
	// Cycling through many distinct flows reuses pooled conntrack entries, so
	// even flow setup is allocation-free once the pool is warm.
	d, s := allocDevice()
	pipe := nullPipe{s: s}
	pkts := make([]*packet.Packet, 256)
	for i := range pkts {
		pkts[i] = packet.NewTCP(packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"),
			uint16(20000+i), 443, packet.FlagSYN, 1, 0, nil)
		d.Handle(pipe, pkts[i], netem.AtoB)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		d.Handle(pipe, pkts[i%len(pkts)], netem.AtoB)
		i++
	})
	if allocs != 0 {
		t.Fatalf("many-flows Handle allocates %v/op, want 0", allocs)
	}
}

// TestBoundedChurnZeroMallocs cycles far more distinct flows than a bounded
// table holds, with auto-sweep on, so every insert evicts under pressure and
// each cycle's gap lets a sweep expire the survivors. It counts every malloc
// made under the loop instead of using AllocsPerRun, which truncates
// amortized growth (a queue that reallocates every few thousand inserts) to 0.
func TestBoundedChurnZeroMallocs(t *testing.T) {
	d, s := allocDevice()
	d.SetMaxFlows(64)
	d.EnableAutoSweep(time.Second)
	pipe := nullPipe{s: s}
	pkts := make([]*packet.Packet, 4096)
	for i := range pkts {
		dst := netip.AddrFrom4([4]byte{203, 0, byte(i >> 8), byte(i)})
		pkts[i] = packet.NewTCP(packet.MustAddr("10.0.0.2"), dst, 40000, 443, packet.FlagSYN, 1, 0, nil)
	}
	cycle := func() {
		for _, p := range pkts {
			s.RunUntil(s.Now() + 10*time.Millisecond)
			d.Handle(pipe, p, netem.AtoB)
		}
		s.RunUntil(s.Now() + 2*time.Minute)
	}
	// Warm: the first two cycles fill the entry pool, the flow index, the
	// stats and — at the first sweep of a full table — the freelist; from
	// then on the device allocates nothing.
	for i := 0; i < 4; i++ {
		cycle()
	}
	n, where := mallocsUnder(func() {
		for i := 0; i < 20; i++ {
			cycle()
		}
	})
	if n != 0 {
		t.Fatalf("bounded churn made %d mallocs over %d inserts, want 0; first at:\n%s", n, 20*len(pkts), where)
	}
	if d.PressureEvictions() == 0 || d.ConntrackEvictions() == 0 {
		t.Fatalf("pressure evictions %d, timeout evictions %d: the loop must exercise both",
			d.PressureEvictions(), d.ConntrackEvictions())
	}
}

// mallocsUnder runs f and counts the heap allocations made on call stacks
// that pass through f, with where the first of them was made. It reads a
// memory profile that records every allocation, not MemStats.Mallocs, which
// is process-wide: it also counts the runtime's own work on other
// goroutines (the unique package's map cleanup after a GC, which netip
// uses; the collector's worker and thread starts), and under a loaded
// go test ./... that made a zero bound flaky. A profile record keeps the
// innermost 32 frames of a stack, so f must be fewer frames above the
// allocation than that.
func mallocsUnder(f func()) (n int64, where string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	f()
	// The profile is published as of the last completed GC's mark
	// termination, so collect once to make f's allocations visible.
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 512)
	for {
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:m]
			break
		}
		recs = make([]runtime.MemProfileRecord, m+m/2)
	}
	under := runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
	for _, r := range recs {
		var stack strings.Builder
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var fr runtime.Frame
			fr, more = frames.Next()
			fmt.Fprintf(&stack, "\t%s\n\t\t%s:%d\n", fr.Function, fr.File, fr.Line)
			if fr.Function == under {
				if n == 0 {
					where = stack.String()
				}
				n += r.AllocObjects
				break
			}
		}
	}
	return n, where
}

// TestFlowEntrySize pins the conntrack record's footprint: the table's memory
// is live flows × this size, so the list links must not grow it past 112 B.
func TestFlowEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(flowEntry{}); n > 112 {
		t.Fatalf("flowEntry is %d B, want at most 112", n)
	}
}

// longSNI is longer than the 32-byte stack buffer the compiler gives a
// non-escaping string conversion or concatenation, so an allocation of that
// kind on the SNI path shows up in these tests; a short name hides it. It is
// mixed-case so the case-folding branch runs too.
const longSNI = "STATIC.XX.FBCDN-EDGE-0001.CDN.FACEBOOK.COM"

func TestDomainSetMatchZeroAllocs(t *testing.T) {
	set := NewDomainSet("facebook.com", "twitter.com", "play.google.com")
	lower := []byte("api.twitter.com")
	upper := []byte("API.TWITTER.COM")
	dotted := []byte("www.facebook.com.")
	long := []byte(longSNI)
	miss := []byte("example.org")
	allocs := testing.AllocsPerRun(500, func() {
		if !set.Match(lower) || !set.Match(upper) || !set.Match(dotted) || !set.Match(long) {
			t.Fatal("Match missed")
		}
		if set.Match(miss) {
			t.Fatal("Match false positive")
		}
	})
	if allocs != 0 {
		t.Fatalf("DomainSet.Match allocates %v/op, want 0", allocs)
	}
}

func TestExtractSNIPathZeroAllocs(t *testing.T) {
	p := NewPolicy()
	p.SNI1Domains.Add("facebook.com")
	hellos := [][]byte{
		(&tlsx.ClientHelloSpec{ServerName: "www.facebook.com", ALPN: []string{"h2"}}).Build(),
		(&tlsx.ClientHelloSpec{ServerName: longSNI, ALPN: []string{"h2"}}).Build(),
	}
	allocs := testing.AllocsPerRun(500, func() {
		for _, ch := range hellos {
			sni, ok := tlsx.ExtractSNI(ch)
			if !ok {
				t.Fatal("SNI not found")
			}
			if cls := p.ClassifyBytes(sni); !cls.SNI1 {
				t.Fatal("classification missed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtractSNI+ClassifyBytes allocates %v/op, want 0", allocs)
	}
}

func TestConntrackObserveZeroAllocs(t *testing.T) {
	ct := newConntrack(DefaultTimeouts())
	p := packet.NewTCP(packet.MustAddr("10.0.0.2"), packet.MustAddr("203.0.113.10"),
		40000, 443, packet.FlagsPSHACK, 1, 1, nil)
	ct.observe(p, true, 0)
	allocs := testing.AllocsPerRun(500, func() {
		ct.observe(p, true, 0)
	})
	if allocs != 0 {
		t.Fatalf("conntrack.observe allocates %v/op, want 0", allocs)
	}
}

// TestTriggerDetectionAllocBudget bounds the one remaining allocating moment:
// installing a new blocking state (the token bucket for SNI-III aside, a
// trigger only pays for what it installs, and a rewritten RST/ACK pays
// nothing).
func TestTriggerDetectionAllocBudget(t *testing.T) {
	d, s := allocDevice()
	pipe := nullPipe{s: s}
	ch := (&tlsx.ClientHelloSpec{ServerName: "facebook.com"}).Build()
	src := packet.MustAddr("10.0.0.2")
	dst := packet.MustAddr("203.0.113.10")
	sport := uint16(20000)
	trig := packet.NewTCP(src, dst, sport, 443, packet.FlagsPSHACK, 1, 1, ch)
	resp := packet.NewTCP(dst, src, 443, sport, packet.FlagsPSHACK, 1, 1, []byte("hello"))
	// Warm: one full trigger+rewrite cycle grows pools and stats maps.
	d.Handle(pipe, trig, netem.AtoB)
	d.Handle(pipe, resp, netem.BtoA)
	allocs := testing.AllocsPerRun(200, func() {
		d.Handle(pipe, trig, netem.AtoB) // flow already blocked: applyBlock path
		d.Handle(pipe, resp, netem.BtoA) // downstream rewrite to RST/ACK
	})
	if allocs != 0 {
		t.Fatalf("blocked-flow Handle allocates %v/op, want 0", allocs)
	}
}
