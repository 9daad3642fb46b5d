package measure

import (
	"fmt"

	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
)

// ExhaustResult quantifies §8's provisioning question: how large a
// flow-table bound keeps blocking state alive through a state-exhaustion
// flood of a given size.
type ExhaustResult struct {
	FloodFlows int
	// Rows: per table bound, did the SNI-I hold survive the flood?
	Rows []ExhaustRow
}

// ExhaustRow is one provisioning level.
type ExhaustRow struct {
	MaxFlows  int // 0 = unlimited
	Survived  bool
	Evictions int
}

// StateExhaustion blocks a connection, floods the vantage's device with
// unrelated flows, and tests whether the blocking state survived — repeated
// across provisioning levels. An attacker-controlled client can free itself
// from residual censorship exactly when the device is under-provisioned.
func StateExhaustion(lab *topo.Lab) *ExhaustResult {
	const flood = 3000
	res := &ExhaustResult{FloodFlows: flood}
	v := vantageOf(lab, topo.ERTelecom)
	dev := v.Devices[0]
	serveHello(lab.US1)

	for _, bound := range []int{0, 100000, 10000, 1000, 256} {
		dev.SetMaxFlows(bound)
		before := dev.PressureEvictions()

		conn := v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
		ch := CH(DomainSNI1)
		conn.OnEstablished = func() { conn.Send(ch) }
		lab.Sim.Run()
		if !conn.ResetSeen {
			// Trigger-miss noise: retry once.
			conn.Close()
			conn = v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
			ch2 := CH(DomainSNI1)
			conn.OnEstablished = func() { conn.Send(ch2) }
			lab.Sim.Run()
		}

		for i := 0; i < flood; i++ {
			v.Stack.SendTCP(lab.US1.Addr(), v.Stack.EphemeralPort(), 80, packet.FlagSYN, 1, 0, nil)
		}
		lab.Sim.Run()

		// Downstream probe: rewritten => the hold survived.
		seen := len(conn.Packets)
		lab.US1.SendTCP(conn.LocalAddr, 443, conn.LocalPort, packet.FlagsPSHACK, 9000, 1, []byte("probe"))
		lab.Sim.Run()
		survived := false
		if len(conn.Packets) > seen {
			survived = conn.Packets[len(conn.Packets)-1].Flags.Has(packet.FlagRST)
		}
		conn.Close()
		res.Rows = append(res.Rows, ExhaustRow{
			MaxFlows:  bound,
			Survived:  survived,
			Evictions: dev.PressureEvictions() - before,
		})
	}
	dev.SetMaxFlows(0)
	return res
}

// Render prints the provisioning table.
func (r *ExhaustResult) Render() *report.Doc {
	t := report.NewTable(
		fmt.Sprintf("State exhaustion (§8): SNI-I hold vs %d-flow flood", r.FloodFlows),
		"Flow-table bound", "Blocking survived", "Pressure evictions")
	for _, row := range r.Rows {
		bound := "unlimited"
		if row.MaxFlows > 0 {
			bound = fmt.Sprint(row.MaxFlows)
		}
		t.AddRow(bound, row.Survived, row.Evictions)
	}
	return new(report.Doc).Add(t).Text(
		"paper: the TSPU trades evasion-resistance for cheap hardware near users;\n" +
			"an under-provisioned flow table converts that trade-off into an evasion.\n")
}
