package tspu

import (
	"net/netip"
	"testing"
	"time"

	"tspusim/internal/netem"
	"tspusim/internal/packet"
	"tspusim/internal/sim"
)

// BenchmarkBoundedFlood is the exhaustscale flood in miniature: unique
// host-pair SYNs against a 65,536-flow bound with auto-sweep, offered in
// 128-s periods of 20 s at 8,192 flows/s then 108 s at 512 flows/s, so every
// period exercises pressure eviction, pool reuse and timeout-wheel expiry.
// The op is one offered flow. Reclaim work is proportional to the entries
// that leave the table, so ns/op should not depend on the sweep interval.
func BenchmarkBoundedFlood(b *testing.B) {
	const (
		highFlows = 8192 * 20
		period    = highFlows + 512*108
	)
	for _, sweep := range []time.Duration{time.Second, 32 * time.Second} {
		b.Run("sweep="+sweep.String(), func(b *testing.B) {
			s := sim.New()
			d := NewDevice(Config{Sim: s, LocalDir: netem.AtoB})
			d.SetMaxFlows(1 << 16)
			d.EnableAutoSweep(sweep)
			pipe := nullPipe{s: s}
			p := packet.NewTCP(packet.MustAddr("10.0.0.2"), packet.MustAddr("198.18.0.1"), 30000, 80, packet.FlagSYN, 1, 0, nil)
			next := 0
			offer := func(n int) {
				for i := 0; i < n; i++ {
					step := time.Second / 512
					if next%period < highFlows {
						step = time.Second / 8192
					}
					a := next & (1<<24 - 1)
					next++
					p.IP.Src = netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)})
					s.RunUntil(s.Now() + step)
					d.Handle(pipe, p, netem.AtoB)
				}
			}
			offer(2 * period) // warm: fill the table and the pool
			b.ReportAllocs()
			b.ResetTimer()
			offer(b.N)
		})
	}
}
