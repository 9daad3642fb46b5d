package tspu

import (
	"testing"
	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
)

func TestMaxFlowsPressureEviction(t *testing.T) {
	l := newLab(t, nil)
	l.device.SetMaxFlows(64)
	// Open 200 flows through the device.
	for i := 0; i < 200; i++ {
		l.client.SendTCP(l.server.Addr(), uint16(20000+i), 80, packet.FlagSYN, 1, 0, nil)
	}
	l.sim.Run()
	if l.device.ConntrackSize() > 64 {
		t.Fatalf("table size %d exceeds bound", l.device.ConntrackSize())
	}
	if l.device.PressureEvictions() == 0 {
		t.Fatal("no pressure evictions recorded")
	}
}

func TestStateExhaustionEvadesBlocking(t *testing.T) {
	// §8's provisioning question made concrete: an under-provisioned device
	// loses blocking state under a flow flood, and a previously-blocked
	// connection resumes — while an unbounded device keeps blocking.
	run := func(maxFlows int) bool {
		l := newLab(t, nil)
		if maxFlows > 0 {
			l.device.SetMaxFlows(maxFlows)
		}
		conn := l.openAndSendCH("facebook.com")
		l.sim.Run()
		if !conn.ResetSeen {
			t.Fatal("not blocked initially")
		}
		// Flood: thousands of unrelated SYNs push the table.
		for i := 0; i < 3000; i++ {
			l.client.SendTCP(l.server.Addr(), uint16(10000+i), 80, packet.FlagSYN, 1, 0, nil)
		}
		l.sim.Run()
		// Probe whether the SNI-I hold survived: a downstream data packet
		// is rewritten only if the blocking entry is still present.
		before := len(conn.Packets)
		l.server.SendTCP(conn.LocalAddr, 443, conn.LocalPort, packet.FlagsPSHACK, 9000, 1, []byte("post-flood"))
		l.sim.Run()
		if len(conn.Packets) == before {
			t.Fatal("probe lost")
		}
		last := conn.Packets[len(conn.Packets)-1]
		return last.Flags.Has(packet.FlagRST) // still blocked?
	}
	if !run(0) {
		t.Fatal("well-provisioned device lost blocking state")
	}
	if run(256) {
		t.Fatal("under-provisioned device kept blocking state through the flood")
	}
}

func TestSweeperReclaimsExpiredState(t *testing.T) {
	l := newLab(t, nil)
	l.device.EnableAutoSweep(30 * time.Second)
	for i := 0; i < 100; i++ {
		l.client.SendTCP(l.server.Addr(), uint16(21000+i), 80, packet.FlagSYN, 1, 0, nil)
	}
	l.sim.Run()
	if l.device.ConntrackSize() != 100 {
		t.Fatalf("size = %d before expiry", l.device.ConntrackSize())
	}
	// SYN_SENT entries expire after 60s; the next packet past the sweep
	// interval triggers housekeeping.
	l.sim.RunUntil(l.sim.Now() + 2*time.Minute)
	l.client.SendTCP(l.server.Addr(), 29999, 80, packet.FlagSYN, 1, 0, nil)
	l.sim.Run()
	if got := l.device.ConntrackSize(); got != 1 {
		t.Fatalf("size = %d after sweep, want only the probe flow", got)
	}
}

func TestManualSweep(t *testing.T) {
	l := newLab(t, nil)
	for i := 0; i < 50; i++ {
		l.client.SendTCP(l.server.Addr(), uint16(22000+i), 80, packet.FlagSYN, 1, 0, nil)
	}
	l.sim.Run()
	l.sim.RunUntil(l.sim.Now() + 5*time.Minute)
	if n := l.device.Sweep(); n != 50 {
		t.Fatalf("sweep reclaimed %d, want 50", n)
	}
	if l.device.Sweep() != 0 {
		t.Fatal("second sweep reclaimed entries")
	}
}

func TestPressureEvictionNeverEvictsOwnInsert(t *testing.T) {
	l := newLab(t, nil)
	l.device.SetMaxFlows(1)
	var lastConn *hostnet.TCPConn
	l.server.Listen(443, hostnet.ListenOptions{})
	for i := 0; i < 5; i++ {
		lastConn = l.client.Dial(l.server.Addr(), 443, hostnet.DialOptions{})
		l.sim.Run()
	}
	// The most recent flow must still have its entry (the bound holds but
	// the newest insert survives).
	if l.device.ConntrackSize() == 0 {
		t.Fatal("table empty")
	}
	ch := clientHello("facebook.com")
	lastConn.Send(ch)
	l.sim.Run()
	if !lastConn.ResetSeen {
		t.Fatal("latest flow lost its entry to its own insertion")
	}
}

// TestPressureEvictsRecreatedFlowByEntry pins FIFO-by-entry eviction across
// lazy expiry. K's SYN_SENT entry expires at 60 s, so the SYN at 70 s
// re-creates K as the newest entry; the bound then has to evict X, the
// oldest live entry, not K at the position of its first insert.
func TestPressureEvictsRecreatedFlowByEntry(t *testing.T) {
	ct := newShardedConntrack(DefaultTimeouts(), 1)
	sh := &ct.shards[0]
	sh.cap.maxFlows = 2
	local := packet.MustAddr("10.0.0.2")
	syn := func(remote string, at time.Duration) packet.FlowKey4 {
		p := packet.NewTCP(local, packet.MustAddr(remote), 40000, 443, packet.FlagSYN, 1, 0, nil)
		key := packet.FlowKey4Of(p)
		sh.observe(key, p, true, at)
		return key
	}
	k := syn("203.0.113.1", 0)
	x := syn("203.0.113.2", 50*time.Second)
	syn("203.0.113.1", 70*time.Second)
	y := syn("203.0.113.3", 71*time.Second)
	if sh.table.get(k) == nil || sh.table.get(y) == nil || sh.table.get(x) != nil {
		t.Errorf("held K=%t X=%t Y=%t; FIFO by entry keeps the re-created K and the newest Y and evicts X",
			sh.table.get(k) != nil, sh.table.get(x) != nil, sh.table.get(y) != nil)
	}
	if sh.cap.pressureEvictions != 1 || sh.evictions != 1 {
		t.Errorf("pressure evictions %d, timeout evictions %d; want 1 and 1", sh.cap.pressureEvictions, sh.evictions)
	}
	checkLists(t, ct)
}
