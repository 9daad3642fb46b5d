package measure

import (
	"sort"

	"tspusim/internal/hostnet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// DeviceReport is an operator's-eye summary: run a standard mixed workload
// through the lab and dump every device's counters — which devices saw
// traffic, which triggered, which rewrote or dropped. It is the
// observability view a real TSPU fleet would export to its controller.
type DeviceReport struct {
	Rows []DeviceRow
}

// DeviceRow is one device's counters.
type DeviceRow struct {
	Name     string
	Stats    tspu.Stats
	Flows    int
	FragQs   int
	Triggers int
}

// Devices drives a representative workload (blocked and clean TLS, QUIC,
// blocked-IP dials, fragmented probes) from every vantage, then snapshots
// the fleet.
func Devices(lab *topo.Lab) *DeviceReport {
	serveHello(lab.US1)
	for _, v := range lab.Vantages {
		for _, domain := range []string{DomainSNI1, DomainSNI2, DomainSNI14, DomainControl} {
			conn := v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
			ch := CH(domain)
			conn.OnEstablished = func() { conn.Send(ch) }
			lab.Sim.Run()
			conn.Close()
		}
		v.Stack.SendUDP(lab.US1.Addr(), v.Stack.EphemeralPort(), 443, quicTriggerPayload())
		conn := v.Stack.Dial(lab.TorAddr, 9001, hostnet.DialOptions{})
		lab.Sim.Run()
		conn.Close()
	}

	rep := &DeviceReport{}
	for _, d := range lab.Devices {
		st := d.Stats()
		if st.Handled == 0 {
			continue // idle endpoint-AS devices are noise at report scale
		}
		total := 0
		for _, n := range st.Triggers {
			total += n
		}
		rep.Rows = append(rep.Rows, DeviceRow{
			Name: d.Name(), Stats: st,
			Flows: d.ConntrackSize(), FragQs: d.PendingFragQueues(),
			Triggers: total,
		})
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Name < rep.Rows[j].Name })
	return rep
}

// Render prints the fleet table.
func (r *DeviceReport) Render() *report.Doc {
	t := report.NewTable("TSPU fleet counters after a mixed workload",
		"Device", "Handled", "Triggers", "Rewritten", "Dropped", "Flows")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.Stats.Handled, row.Triggers, row.Stats.Rewritten, row.Stats.Dropped, row.Flows)
	}
	return new(report.Doc).Add(t)
}
