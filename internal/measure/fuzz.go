package measure

import (
	"tspusim/internal/packet"
	"tspusim/internal/quicx"
	"tspusim/internal/report"
	"tspusim/internal/tlsx"
	"tspusim/internal/topo"
)

// CHFuzzRow is one alteration's outcome: did the mutated ClientHello still
// trigger blocking?
type CHFuzzRow struct {
	Name       string
	Structural bool
	Blocked    bool
}

// CHFuzz maps which parts of a ClientHello the TSPU inspects (Fig. 13) by
// applying every alteration strategy to a triggering ClientHello and
// observing whether blocking still occurs. Structural corruptions (type and
// length fields) break the device's parser and evade; cosmetic changes
// (versions, random, cipher order) do not.
func CHFuzz(lab *topo.Lab) []CHFuzzRow {
	p := VantagePath(lab, topo.ERTelecom)
	base := (&tlsx.ClientHelloSpec{ServerName: DomainSNI1}).Build()

	probe := func(payload []byte) bool {
		return retried(func() bool {
			f := NewFlow(p, 443)
			defer f.Close()
			f.Handshake()
			f.L(packet.FlagsPSHACK, payload)
			return f.downstreamRST()
		})
	}

	rows := []CHFuzzRow{{Name: "unmodified", Structural: false, Blocked: probe(base)}}
	for _, alt := range tlsx.Alterations() {
		rows = append(rows, CHFuzzRow{
			Name:       alt.Name,
			Structural: alt.Structural,
			Blocked:    probe(alt.Apply(base)),
		})
	}
	return rows
}

// RenderCHFuzz prints the Fig. 13 inspection map.
func RenderCHFuzz(rows []CHFuzzRow) *report.Doc {
	t := report.NewTable("Fig. 13: ClientHello fields the TSPU inspects",
		"Alteration", "Kind", "Still blocked")
	for _, r := range rows {
		kind := "cosmetic (ignored by parser)"
		if r.Structural {
			kind = "structural (type/length field)"
		}
		if r.Name == "unmodified" {
			kind = "baseline"
		}
		t.AddRow(r.Name, kind, r.Blocked)
	}
	return new(report.Doc).Add(t)
}

// QUICFuzzResult is the Fig. 14 boundary sweep.
type QUICFuzzResult struct {
	// MinLen is the smallest payload length that triggers (paper: 1001).
	MinLen int
	// V1Blocked / Draft29Blocked / QuicpingBlocked record version targeting.
	V1Blocked, Draft29Blocked, QuicpingBlocked bool
	// Port80Blocked records whether a non-443 port triggers.
	Port80Blocked bool
}

// QUICFuzz sweeps the QUIC fingerprint boundaries from a vantage.
func QUICFuzz(lab *topo.Lab) QUICFuzzResult {
	p := VantagePath(lab, topo.ERTelecom)
	blocked := func(version uint32, size int, port uint16) bool {
		return retried(func() bool {
			return udpDelivered(p, port, quicx.BuildInitial(version, size), []byte("follow-up")) < 2
		})
	}

	res := QUICFuzzResult{
		V1Blocked:       blocked(quicx.Version1, 1200, 443),
		Draft29Blocked:  blocked(quicx.VersionDraft29, 1200, 443),
		QuicpingBlocked: blocked(quicx.VersionQUICPing, 1200, 443),
		Port80Blocked:   blocked(quicx.Version1, 1200, 80),
	}
	// Bisect the length threshold.
	lo, hi := 6, 1200
	if !blocked(quicx.Version1, hi, 443) {
		return res
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if blocked(quicx.Version1, mid, 443) {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.MinLen = hi
	return res
}

// Render prints the Fig. 14 findings.
func (r QUICFuzzResult) Render() *report.Doc {
	return new(report.Doc).
		Text("== Fig. 14: QUIC fingerprint boundaries ==\n").
		Textf("minimum triggering payload: %d bytes (paper: 1001)\n", r.MinLen).
		Textf("QUIC v1 blocked:        %v (paper: yes)\n", r.V1Blocked).
		Textf("draft-29 blocked:       %v (paper: no — 0xff00001d evades)\n", r.Draft29Blocked).
		Textf("quicping blocked:       %v (paper: no — 0xbabababa evades)\n", r.QuicpingBlocked).
		Textf("udp/80 v1 blocked:      %v (paper: no — filter bound to :443)\n", r.Port80Blocked)
}
