package measure

import (
	"fmt"
	"sync"

	"tspusim/internal/hostnet"
	"tspusim/internal/quicx"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// ReliabilityResult is Table 1: the fraction of connections per vantage and
// blocking type that escaped censorship.
type ReliabilityResult struct {
	Trials int
	// Failures[vantage][type] is the unblocked fraction.
	Failures map[string]map[tspu.BlockType]float64
}

// ReliabilityTypes are the columns of Table 1 (SNI-III was replaced by
// outright blocking before a reliability experiment could be run — the
// paper's own footnote).
var ReliabilityTypes = []tspu.BlockType{tspu.SNI1, tspu.SNI2, tspu.SNI4, tspu.QUICBlock, tspu.IPBlock}

// ReliabilityCols names Table 1's columns, aligned with ReliabilityTypes.
var ReliabilityCols = []string{"SNI-I", "SNI-II", "SNI-IV", "QUIC", "IP-Based"}

// Vantages orders Table 1's rows (and every per-vantage artifact).
var Vantages = []string{topo.Rostelecom, topo.ERTelecom, topo.OBIT}

// quicTrigger is the QUIC cell's trigger, built once as CH memoizes
// hellos. SendUDP copies a payload into its packet, so trials share it.
var quicTrigger = sync.OnceValue(func() []byte { return quicx.BuildInitial(quicx.Version1, 1200) })

// postTrigger follows the QUIC trigger; blocked means it was dropped.
var postTrigger = []byte("post-trigger")

// Reliability measures Table 1 with the given number of trials per cell
// (paper: 20,000).
func Reliability(lab *topo.Lab, trials int) *ReliabilityResult {
	res := &ReliabilityResult{Trials: trials, Failures: make(map[string]map[tspu.BlockType]float64)}

	// US1 port 443: a normal responding server. US2 port 443: a
	// split-handshake server used to force the SNI-IV backup path.
	us1 := serveHello(lab.US1)
	us2 := lab.US2.Listen(443, hostnet.ListenOptions{SplitHandshake: true})

	for _, name := range []string{topo.Rostelecom, topo.ERTelecom, topo.OBIT} {
		v := vantageOf(lab, name)
		res.Failures[name] = make(map[tspu.BlockType]float64)
		for _, typ := range ReliabilityTypes {
			fails := 0
			for i := 0; i < trials; i++ {
				if !trialBlocked(lab, v, typ, us1, us2) {
					fails++
				}
			}
			res.Failures[name][typ] = float64(fails) / float64(trials)
		}
	}
	return res
}

// trialBlocked runs one censorship attempt and reports whether the TSPU
// blocked it. us1 and us2 are the listeners on US1 and US2 port 443. Once
// the verdict is read, a trial closes the server-side connections it caused
// and removes any listener it added, so a lab's endpoint state does not
// grow with the number of trials.
func trialBlocked(lab *topo.Lab, v *topo.Vantage, typ tspu.BlockType, us1, us2 *hostnet.Listener) bool {
	p := Path{Sim: lab.Sim, Local: v.Stack, Remote: lab.US1}
	//tspuvet:allow statecheck: SNI3 throttling is not a binary blocked/unblocked verdict; Table 4 reliability covers only ReliabilityTypes
	switch typ {
	case tspu.SNI1:
		blocked := chReset(p, DomainSNI1)
		us1.CloseConns()
		return blocked
	case tspu.SNI2:
		return sni2Blocked(p, DomainSNI2)
	case tspu.SNI4:
		p.Remote = lab.US2
		blocked := chSwallowed(p, us2, DomainSNI14)
		us2.CloseConns()
		return blocked
	case tspu.QUICBlock:
		// The trigger itself passes; blocked means the rest were dropped.
		return udpDelivered(p, 443, quicTrigger(), postTrigger, postTrigger, postTrigger) < 4
	case tspu.IPBlock:
		port := v.Stack.EphemeralPort()
		ln := v.Stack.Listen(port, hostnet.ListenOptions{})
		blocked := torProbe(lab, v.Stack.Addr(), port)
		ln.Close()
		return blocked
	}
	return false
}

// Table lays out Table 1; each cell's stat is the failure percentage.
func (r *ReliabilityResult) Table() *report.Table {
	t := report.NewTable(fmt.Sprintf("Table 1: TSPU trigger failure rates (%d trials/cell)", r.Trials),
		append([]string{"Vantage"}, ReliabilityCols...)...)
	for _, name := range Vantages {
		row := []any{name}
		for _, typ := range ReliabilityTypes {
			row = append(row, report.Numf("%.4f%%", 100*r.Failures[name][typ]))
		}
		t.AddRow(row...)
	}
	return t
}

// Render prints Table 1.
func (r *ReliabilityResult) Render() string { return r.Table().String() }

// ReliabilityConcurrent reruns the SNI-I cell with batched (overlapping)
// connections. §5.2.1: "We also tried different levels of concurrency but
// found no observable differences from sequential testing results" — the
// TSPU's per-flow state makes trials independent, which this verifies.
func ReliabilityConcurrent(lab *topo.Lab, vantage string, trials, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	v := vantageOf(lab, vantage)
	serveHello(lab.US1)
	fails := 0
	for done := 0; done < trials; {
		n := batch
		if done+n > trials {
			n = trials - done
		}
		conns := make([]*hostnet.TCPConn, n)
		for i := range conns {
			conn := v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
			conn.OnEstablished = func() { conn.Send(CH(DomainSNI1)) }
			conns[i] = conn
		}
		lab.Sim.Run() // the whole batch shares the wire concurrently
		for _, conn := range conns {
			if !conn.ResetSeen {
				fails++
			}
			conn.Close()
		}
		done += n
	}
	return float64(fails) / float64(trials)
}
