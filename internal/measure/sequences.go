package measure

import (
	"fmt"
	"strings"
	"time"

	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
)

// Op is one scripted packet in a sequence: which side sends and with what
// flags. The paper's notation: L=Local, R=Remote; s=SYN, sa=SYN/ACK, a=ACK.
type Op struct {
	Local bool
	Flags packet.TCPFlags
}

// The op vocabulary of §5.3.2.
var (
	Ls  = Op{true, packet.FlagSYN}
	Lsa = Op{true, packet.FlagsSYNACK}
	La  = Op{true, packet.FlagACK}
	Rs  = Op{false, packet.FlagSYN}
	Rsa = Op{false, packet.FlagsSYNACK}
	Ra  = Op{false, packet.FlagACK}
)

// OpName renders an op in the paper's notation.
func OpName(o Op) string {
	side := "R"
	if o.Local {
		side = "L"
	}
	switch o.Flags {
	case packet.FlagSYN:
		return side + "s"
	case packet.FlagsSYNACK:
		return side + "sa"
	case packet.FlagACK:
		return side + "a"
	}
	return side + "?"
}

// SeqString renders a sequence.
func SeqString(seq []Op) string {
	if len(seq) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(seq))
	for i, o := range seq {
		parts[i] = OpName(o)
	}
	return strings.Join(parts, ";")
}

// SeqVerdict classifies one prefix sequence (a Fig. 4 node).
type SeqVerdict struct {
	Seq []Op
	// SNI1Acts reports whether a following SNI-I trigger leads to RST/ACK
	// rewriting of downstream traffic.
	SNI1Acts bool
	// SNI4Acts reports whether a following SNI-I+IV trigger is itself
	// swallowed (the backup drop-all).
	SNI4Acts bool
	// TriggerDelivered reports whether the SNI-I trigger reached the remote.
	TriggerDelivered bool
}

// Green reports whether the sequence is a Fig. 4 "green node": it evades
// SNI-I but still trips the SNI-IV backup.
func (v SeqVerdict) Green() bool { return !v.SNI1Acts && v.SNI4Acts }

// play scripts the prefix ops on the flow.
func (f *Flow) play(seq []Op) {
	for _, op := range seq {
		if op.Local {
			f.L(op.Flags, nil)
		} else {
			f.R(op.Flags, nil)
		}
	}
}

// ClassifySequence tests one prefix sequence from a vantage, as §5.3.2 does:
// append a triggering ClientHello and observe the blocking behavior.
func ClassifySequence(lab *topo.Lab, vantage string, seq []Op) SeqVerdict {
	p := VantagePath(lab, vantage)
	verdict := SeqVerdict{Seq: seq}

	// SNI-I probe: trigger with an SNI-I-only domain, then a downstream
	// response; RST/ACK at the local side means SNI-I acted.
	f := NewFlow(p, 443)
	f.play(seq)
	f.L(packet.FlagsPSHACK, CH(DomainSNI1))
	verdict.TriggerDelivered = f.remoteDataCount() > 0
	verdict.SNI1Acts = f.downstreamRST()
	f.Close()

	// SNI-IV probe: a domain under both SNI-I and SNI-IV, sent to the second
	// US machine. If the trigger never arrives remotely, the backup drop-all
	// fired.
	p.Remote = lab.US2
	f = NewFlow(p, 443)
	f.play(seq)
	f.L(packet.FlagsPSHACK, CH(DomainSNI14))
	verdict.SNI4Acts = f.remoteDataCount() == 0
	f.Close()
	return verdict
}

// ExploreSequences enumerates all op sequences up to maxLen (the paper used
// 3) and classifies each — the Fig. 4 tree.
type ExploreResult struct {
	Verdicts []SeqVerdict
}

// ExploreSequences runs the full enumeration from a vantage.
func ExploreSequences(lab *topo.Lab, vantage string, maxLen int) *ExploreResult {
	ops := []Op{Ls, Lsa, La, Rs, Rsa, Ra}
	res := &ExploreResult{}
	var rec func(prefix []Op)
	rec = func(prefix []Op) {
		res.Verdicts = append(res.Verdicts, ClassifySequence(lab, vantage, prefix))
		if len(prefix) == maxLen {
			return
		}
		for _, op := range ops {
			rec(append(append([]Op{}, prefix...), op))
		}
	}
	rec(nil)
	return res
}

// Stats summarizes the exploration.
func (r *ExploreResult) Stats() (total, validSNI1, green, remoteFirstValid int) {
	for _, v := range r.Verdicts {
		total++
		if v.SNI1Acts {
			validSNI1++
			if len(v.Seq) > 0 && !v.Seq[0].Local {
				remoteFirstValid++
			}
		}
		if v.Green() {
			green++
		}
	}
	return
}

// Render lays out the Fig. 4 summary plus every green sequence.
func (r *ExploreResult) Render() *report.Doc {
	total, valid, green, remoteFirst := r.Stats()
	doc := new(report.Doc).
		Text("== Fig. 4: TSPU triggering sequences (length <= 3) ==\n").
		Textf("sequences tested:            %d\n", total).
		Textf("valid SNI-I prefixes:        %d\n", valid).
		Textf("remote-first valid prefixes: %d (paper: 0 — remote-first is never a valid prefix)\n", remoteFirst).
		Textf("green (evade SNI-I, hit SNI-IV backup): %d\n", green)
	for _, v := range r.Verdicts {
		if v.Green() {
			doc.Textf("  green: %s\n", SeqString(v.Seq))
		}
	}
	return doc
}

// BlockCheck selects the trigger class of a timeout probe: which domain
// triggers and how "blocked" is decided afterwards.
type BlockCheck int

// Block checks.
const (
	// CheckSNI1: an SNI-I trigger; the downstream response is rewritten to
	// RST/ACK.
	CheckSNI1 BlockCheck = iota
	// CheckSNI2: an SNI-II trigger; upstream markers after it get dropped.
	CheckSNI2
)

// trigger sends the check's triggering ClientHello.
func (c BlockCheck) trigger(f *Flow) {
	domain := DomainSNI2
	if c == CheckSNI1 {
		domain = DomainSNI1
	}
	f.L(packet.FlagsPSHACK, CH(domain))
}

// blocked reads the check's verdict after the trigger.
func (c BlockCheck) blocked(f *Flow) bool {
	if c == CheckSNI1 {
		return f.downstreamRST()
	}
	return f.markersDropped()
}

// sleepProbe is the Fig. 5 protocol: on a fresh flow, script a sequence
// with a sleep of the probed length somewhere in it, then read the check's
// verdict. Retried against trigger misses.
func sleepProbe(p Path, check BlockCheck, script func(f *Flow, sleep time.Duration)) func(time.Duration) bool {
	return func(sleep time.Duration) bool {
		return retried(func() bool {
			f := NewFlow(p, 443)
			defer f.Close()
			script(f, sleep)
			return check.blocked(f)
		})
	}
}

// stateProbe measures whether blocking occurs for a sequence with the sleep
// inserted at sleepAt (ops before it play, then the clock advances, then
// the rest, then the trigger): how long the prefix's conntrack state lasts.
func stateProbe(p Path, seq []Op, sleepAt int, check BlockCheck) func(time.Duration) bool {
	return sleepProbe(p, check, func(f *Flow, sleep time.Duration) {
		f.play(seq[:sleepAt])
		f.Sleep(sleep)
		f.play(seq[sleepAt:])
		check.trigger(f)
	})
}

// holdProbe measures whether an installed blocking state is still active
// after a sleep: handshake, trigger, sleep, then the check.
func holdProbe(p Path, check BlockCheck) func(time.Duration) bool {
	return sleepProbe(p, check, func(f *Flow, sleep time.Duration) {
		f.Handshake()
		check.trigger(f)
		f.Sleep(sleep)
	})
}

// bisect finds, at 1-second resolution, the sleep in [1 s, 600 s] at which
// probe's verdict flips; ok is false when both ends agree.
func bisect(probe func(time.Duration) bool) (d time.Duration, ok bool) {
	lo, hi := time.Second, 600*time.Second
	atLo := probe(lo)
	if probe(hi) == atLo {
		return 0, false
	}
	for hi-lo > time.Second {
		mid := (lo + hi) / 2
		if probe(mid) == atLo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, true
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Label    string
	Timeout  time.Duration
	Found    bool
	State    string
	PaperVal time.Duration
}

// Table2 reproduces the state-timeout table. Measurements run from
// ER-Telecom, the single-device vantage, to avoid multi-device interactions
// (the paper TTL-limited triggers for the same reason, footnote 2).
func Table2(lab *topo.Lab) []Table2Row {
	p := VantagePath(lab, topo.ERTelecom)
	var rows []Table2Row
	add := func(label string, probe func(time.Duration) bool, state string, paper time.Duration) {
		d, ok := bisect(probe)
		rows = append(rows, Table2Row{label, d, ok, state, paper})
	}

	// Remote.SYN; SLEEP; Local.SYN; Remote.SA; Local trigger -> SYN_SENT.
	add("Remote SYN; SLEEP; Local.SYN; Remote.SA; Local Trigger",
		stateProbe(p, []Op{Rs, Ls, Rsa}, 1, CheckSNI2), "SYN_SENT", 60*time.Second)
	// Local.SYN; Remote.SYN; Local.A; SLEEP; trigger -> SYN_RCVD. Uses an
	// SNI-I domain: within the timeout the confused role exempts SNI-I.
	add("Local.SYN; Remote.SYN; Local.A; SLEEP; Local Trigger",
		stateProbe(p, []Op{Ls, Rs, La}, 3, CheckSNI1), "SYN_RCVD", 105*time.Second)
	// Local.SYN; Remote.SA; SLEEP; Remote.ACK; trigger -> ESTABLISHED.
	add("Local.SYN; Remote.SA; SLEEP; Remote.ACK; Local Trigger",
		stateProbe(p, []Op{Ls, Rsa, Ra}, 2, CheckSNI2), "ESTABLISHED", 480*time.Second)

	// Blocking-state holds.
	add("Local Trigger(SNI-I); SLEEP", holdProbe(p, CheckSNI1), "SNI-I", 75*time.Second)
	add("Local Trigger(SNI-II); SLEEP", holdProbe(p, CheckSNI2), "SNI-II", 420*time.Second)
	add("Local Trigger(SNI-IV); SLEEP", sni4HoldProbe(p), "SNI-IV", 40*time.Second)
	add("Local Trigger(QUIC); SLEEP", quicHoldProbe(p), "QUIC", 420*time.Second)
	return rows
}

// sni4HoldProbe installs the SNI-IV drop-all (split-handshake prefix), then
// reports whether an upstream packet is still dropped after the sleep.
func sni4HoldProbe(p Path) func(time.Duration) bool {
	return func(sleep time.Duration) bool {
		f := NewFlow(p, 443)
		defer f.Close()
		f.L(packet.FlagSYN, nil)
		f.R(packet.FlagSYN, nil) // split handshake: role confusion
		f.L(packet.FlagsSYNACK, nil)
		f.R(packet.FlagACK, nil)
		f.L(packet.FlagsPSHACK, CH(DomainSNI14)) // SNI-IV fires, drops all
		f.Sleep(sleep)
		before := len(f.RemoteGot)
		f.L(packet.FlagsPSHACK, []byte("marker"))
		return len(f.RemoteGot) == before // still dropping
	}
}

// quicHoldProbe triggers the QUIC filter, then reports whether a datagram on
// the same flow is still dropped after the sleep.
func quicHoldProbe(p Path) func(time.Duration) bool {
	return func(sleep time.Duration) bool {
		sport := p.Local.EphemeralPort()
		got := 0
		p.Remote.BindUDP(443, func(pkt *packet.Packet) {
			if pkt.UDP.SrcPort == sport {
				got++
			}
		})
		p.Local.SendUDP(p.Remote.Addr(), sport, 443, quicTriggerPayload())
		p.Sim.Run()
		p.Sim.RunUntil(p.Sim.Now() + sleep)
		p.Local.SendUDP(p.Remote.Addr(), sport, 443, []byte("after-sleep"))
		p.Sim.Run()
		return got < 2 // the post-sleep packet was dropped
	}
}

func quicTriggerPayload() []byte {
	b := make([]byte, 1200)
	b[0] = 0xc0
	b[4] = 0x01
	return b
}

// Table8Row is one row of Table 8.
type Table8Row struct {
	Seq      string
	Timeout  time.Duration
	Found    bool
	Action   string // PASS or DROP
	PaperVal time.Duration
	PaperAct string
}

// table8Sequences lists the 16 sequences of Table 8; the sleep goes after
// the prefix, before the trigger. (The paper's "Ss" row is read as "Rs".)
var table8Sequences = []struct {
	label    string
	seq      []Op
	paperVal int
	paperAct string
}{
	{"Lt", nil, 180, "DROP"},
	{"Rs;Lt", []Op{Rs}, 30, "PASS"},
	{"Rs;Ls;Lt", []Op{Rs, Ls}, 30, "PASS"},
	{"Ls;Rs;Lt", []Op{Ls, Rs}, 180, "DROP"},
	{"Rs;Ls;Rsa;Lt", []Op{Rs, Ls, Rsa}, 480, "PASS"},
	{"Rs;Ls;Lsa;Lt", []Op{Rs, Ls, Lsa}, 180, "PASS"},
	{"Rs;Ls;Rsa;Lsa;Lt", []Op{Rs, Ls, Rsa, Lsa}, 480, "PASS"},
	{"Ra;Lt", []Op{Ra}, 480, "PASS"},
	{"Ra;Lsa;Lt", []Op{Ra, Lsa}, 480, "PASS"},
	{"Lsa;Lt", []Op{Lsa}, 420, "DROP"},
	{"Rs;Lsa;Lt", []Op{Rs, Lsa}, 180, "PASS"},
	{"Ra;Lsa;Ra;Lt", []Op{Ra, Lsa, Ra}, 480, "PASS"},
	{"Rsa;Lt", []Op{Rsa}, 480, "PASS"},
	{"Ls;Ra;Lt", []Op{Ls, Ra}, 180, "PASS"},
	{"Rsa;Lsa;Lt", []Op{Rsa, Lsa}, 480, "PASS"},
	{"La;Lt", []Op{La}, 480, "DROP"},
}

// Table8 measures action and timeout for each listed sequence with an
// SNI-II trigger, as in the paper (t = SNI-II).
func Table8(lab *topo.Lab) []Table8Row {
	p := VantagePath(lab, topo.ERTelecom)
	var rows []Table8Row
	for _, s := range table8Sequences {
		probe := stateProbe(p, s.seq, len(s.seq), CheckSNI2)
		action := "PASS"
		if probe(0) {
			action = "DROP"
		}
		// Timeout: how long the prefix state persists — sleep between
		// prefix and trigger. For empty prefixes, measure the blocking
		// state's own timeout instead.
		if len(s.seq) == 0 {
			probe = holdProbe(p, CheckSNI2)
		}
		d, ok := bisect(probe)
		rows = append(rows, Table8Row{
			Seq: s.label, Timeout: d, Found: ok, Action: action,
			PaperVal: time.Duration(s.paperVal) * time.Second, PaperAct: s.paperAct,
		})
	}
	return rows
}

// RenderTable2 lays out Table 2 with paper-vs-measured columns.
func RenderTable2(rows []Table2Row) *report.Doc {
	t := report.NewTable("Table 2: state timeout measurements (measured vs paper)",
		"Sequence", "State", "Measured", "Paper")
	for _, r := range rows {
		var m any = "none"
		if r.Found {
			m = report.Numf("%.0fs", r.Timeout.Seconds())
		}
		t.AddRow(r.Label, r.State, m, fmt.Sprintf("%.0fs", r.PaperVal.Seconds()))
	}
	return new(report.Doc).Add(t)
}

// RenderTable8 lays out Table 8.
func RenderTable8(rows []Table8Row) *report.Doc {
	t := report.NewTable("Table 8: sequence timeout estimates (measured vs paper)",
		"Sequence", "Action", "Paper-Action", "Timeout", "Paper-Timeout")
	for _, r := range rows {
		var m any = "none"
		if r.Found {
			m = report.Numf("%.0fs", r.Timeout.Seconds())
		}
		t.AddRow(r.Seq, r.Action, r.PaperAct, m, fmt.Sprintf("%.0fs", r.PaperVal.Seconds()))
	}
	return new(report.Doc).Add(t)
}
