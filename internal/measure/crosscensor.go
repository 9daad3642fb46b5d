package measure

import (
	"fmt"
	"strings"

	"tspusim/internal/censor"
	"tspusim/internal/censor/in"
	"tspusim/internal/censor/tm"
	"tspusim/internal/dnsx"
	"tspusim/internal/hostnet"
	"tspusim/internal/httpx"
	"tspusim/internal/ispdpi"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// The cross-censor battery: run the *identical* probe suite against every
// modeled censor and pin the resulting fingerprint matrix.
// The paper's claim that TSPU behavior is a fingerprint — residual per-flow
// blocking, local-direction-only triggers, downstream RST/ACK rewriting, the
// 45-fragment queue — is only checkable relative to censors that behave
// differently on the same probes: Turkmenistan's bidirectional stateless
// injector (arXiv:2304.04835), India's heterogeneous per-ISP middleboxes
// (arXiv:1808.01708), and the pre-2019 Russian ISP keyword DPI.
//
// Every probe builds a fresh CensorTestbed (fresh Sim, fresh censor
// instance), mirroring the paper's fresh-source-port methodology, so cells
// are independent and the matrix is a pure function of the model tables.
// The probes the paper's techniques cover — the TLS TTL ladder, the
// 45/46-fragment pair, the residual triple — run the same code as the lab
// experiments, over the testbed's Path.

// CrossBlockedDomain is the canonical blocked name installed into every
// model's trigger tables, so each cell elicits behavior with the same
// stimulus. RFE/RL is blocked by Russia, Turkmenistan (its Turkmen service),
// and a subset of Indian ISPs, making it the honest common denominator.
const CrossBlockedDomain = "rferl.org"

// CensorModel is one column of the fingerprint matrix, and one lineage of
// the arms race (armsrace.Family embeds it).
type CensorModel struct {
	Name string
	// Cite is the paper establishing the modeled behavior.
	Cite string
	// Build constructs a fresh instance configured with the canonical
	// blocked domain, on the testbed's simulator. A non-nil tune edits the
	// TSPU's config before the device is built (the arms race's
	// countermeasures); the other models have no config to tune.
	Build func(s *sim.Sim, tune func(*tspu.Config)) censor.Censor
}

// CensorModels returns the model set in matrix column order. label names
// the user of the table: the TSPU draws from rand stream label+"/tspu" of
// seed, and the keyword DPI carries label as its ISP name.
func CensorModels(seed uint64, label string) []CensorModel {
	india := func(isp string) CensorModel {
		return CensorModel{Name: "in-" + isp, Cite: "arXiv:1808.01708",
			Build: func(*sim.Sim, func(*tspu.Config)) censor.Censor {
				p := in.ProfileFor(isp)
				p.Blocklist.Add(CrossBlockedDomain)
				return in.New(in.Config{Profile: p, LocalDir: topo.CensorTestbedLocalDir})
			}}
	}
	return []CensorModel{
		{
			Name: "tspu",
			Cite: "TSPU (IMC '22)",
			Build: func(s *sim.Sim, tune func(*tspu.Config)) censor.Censor {
				cfg := tspu.Config{
					Name:     "tspu",
					Sim:      s,
					Rand:     sim.NewRand(sim.StreamSeed(seed, label+"/tspu")),
					LocalDir: topo.CensorTestbedLocalDir,
				}
				if tune != nil {
					tune(&cfg)
				}
				d := tspu.NewDevice(cfg)
				ctl := tspu.NewController(nil)
				ctl.Register(d)
				ctl.Update(func(p *tspu.Policy) {
					p.SNI1Domains.Add(CrossBlockedDomain)
					p.QUICFilter = true
				})
				return d
			},
		},
		{
			Name: "ispdpi-keyword",
			Cite: "pre-2019 RU ISP DPI (§2 [81])",
			Build: func(*sim.Sim, func(*tspu.Config)) censor.Censor {
				return &ispdpi.KeywordDPI{ISP: label, Keywords: []string{CrossBlockedDomain}}
			},
		},
		{
			Name: "tm",
			Cite: "arXiv:2304.04835",
			Build: func(*sim.Sim, func(*tspu.Config)) censor.Censor {
				c := tm.New()
				c.Rules().AddAll(CrossBlockedDomain)
				return c
			},
		},
		india("airtel"),
		india("jio"),
		india("mtnl"),
	}
}

// CensorProbe is one row of the fingerprint matrix: family/name plus the
// probe function, which builds its own testbed and returns the observed
// behavior as a canonical string.
type CensorProbe struct {
	Family string
	Name   string
	Run    func(m CensorModel) string
}

// ID returns the row label.
func (p CensorProbe) ID() string { return p.Family + "/" + p.Name }

// CensorProbes returns the battery rows in matrix order. Every probe is the
// same stimulus for every model; cells differ only because behaviors do.
func CensorProbes() []CensorProbe {
	return []CensorProbe{
		{"localize", "tls-ttl-ladder", probeLocalizeTLS},
		{"localize", "http-ttl-ladder", probeLocalizeHTTP},
		{"state", "remote-first-flow", probeRemoteFirst},
		{"state", "server-side-clienthello", probeServerSideCH},
		{"state", "conntrack-occupancy", probeConntrack},
		{"frag", "syn-queue-limit", probeFragLimit},
		{"frag", "split-clienthello", probeFragCH},
		{"residual", "reused-port", probeResidualReused},
		{"residual", "fresh-port", probeResidualFresh},
		{"residual", "after-expiry", probeResidualExpiry},
		{"dns", "blocked-query", probeDNSBlocked},
		{"dns", "reverse-query", probeDNSReverse},
		{"http", "blocked-host", probeHTTPBlocked},
		{"http", "control-host", probeHTTPControl},
		{"list", "divergent-hosts", probeDivergentHosts},
		{"tls", "blocked-sni", probeTLSBlocked},
		{"quic", "blocked-initial", probeQUIC},
	}
}

// FingerprintMatrix is the deterministic censor × probe → behavior table.
type FingerprintMatrix struct {
	Models []CensorModel
	Probes []CensorProbe
	// Cells is indexed [probe][model].
	Cells [][]string
}

// CrossCensor runs the full battery.
func CrossCensor(seed uint64) *FingerprintMatrix {
	mx := &FingerprintMatrix{
		Models: CensorModels(seed, "crosscensor"),
		Probes: CensorProbes(),
	}
	for _, p := range mx.Probes {
		row := make([]string, 0, len(mx.Models))
		for _, m := range mx.Models {
			row = append(row, p.Run(m))
		}
		mx.Cells = append(mx.Cells, row)
	}
	return mx
}

// Cell returns the observed behavior for (probeID, modelName), panicking on
// unknown labels — tests pass constants.
func (mx *FingerprintMatrix) Cell(probeID, model string) string {
	pi, mi := -1, -1
	for i, p := range mx.Probes {
		if p.ID() == probeID {
			pi = i
		}
	}
	for i, m := range mx.Models {
		if m.Name == model {
			mi = i
		}
	}
	if pi < 0 || mi < 0 {
		panic("crosscensor: unknown cell " + probeID + " × " + model)
	}
	return mx.Cells[pi][mi]
}

// Fingerprint returns one model's column joined in probe order — the string
// that must be unique per censor for the models to be distinguishable.
func (mx *FingerprintMatrix) Fingerprint(model string) string {
	var parts []string
	for _, p := range mx.Probes {
		parts = append(parts, p.ID()+"="+mx.Cell(p.ID(), model))
	}
	return strings.Join(parts, "; ")
}

// DistinctFingerprints counts unique columns.
func (mx *FingerprintMatrix) DistinctFingerprints() int {
	seen := map[string]bool{}
	for _, m := range mx.Models {
		seen[mx.Fingerprint(m.Name)] = true
	}
	return len(seen)
}

// Render prints the matrix as the crosscensor experiment's report.
func (mx *FingerprintMatrix) Render() *report.Doc {
	t := report.NewTable("Cross-censor fingerprint matrix (identical probe battery, one column per censor model)",
		"Probe", "Censor", "Observed behavior")
	for pi, p := range mx.Probes {
		for mi, m := range mx.Models {
			t.AddRow(p.ID(), m.Name, mx.Cells[pi][mi])
		}
	}
	cites := make([]string, len(mx.Models))
	for i, m := range mx.Models {
		cites[i] = m.Name + ": " + m.Cite
	}
	families := map[string]bool{}
	for _, p := range mx.Probes {
		families[p.Family] = true
	}
	return new(report.Doc).Add(t).
		Textf("models: %d (%s)\n", len(mx.Models), strings.Join(cites, ", ")).
		Textf("probe families: %d, probes: %d, distinct fingerprints: %d/%d\n",
			len(families), len(mx.Probes), mx.DistinctFingerprints(), len(mx.Models)).
		Text("stimulus domain: " + CrossBlockedDomain + " (installed in every model's tables); control: " + DomainControl + "\n")
}

// ---- probe implementations ----

// Canonical cell vocabulary. Probes translate raw observations into these
// strings; the differential pair tests pin exact values, so changing one is
// changing a behavioral claim.
const (
	cellNone = "no interference"
)

func newCensorTestbed(m CensorModel) *topo.CensorTestbed {
	return topo.BuildCensorTestbed(func(s *sim.Sim) censor.Censor { return m.Build(s, nil) })
}

func anyRST(got []hostnet.Arrival) bool {
	for _, a := range got {
		if a.Flags.Has(packet.FlagRST) {
			return true
		}
	}
	return false
}

// testbedPath builds a fresh testbed for m and returns its path.
func testbedPath(m CensorModel) Path { return TestbedPath(newCensorTestbed(m)) }

// probeTLSBlocked: full handshake, blocked ClientHello, then a downstream
// data probe. Separates the TSPU's downstream rewrite from injection-style
// censors and from in-flight rewriters.
func probeTLSBlocked(m CensorModel) string {
	f := NewFlow(testbedPath(m), 443)
	defer f.Close()
	f.Handshake()
	f.L(packet.FlagsPSHACK, CH(CrossBlockedDomain))
	injectedRST := f.LastLocalRST()
	upstreamRST := anyRST(f.RemoteGot)
	chDelivered := f.remoteDataCount() > 0
	downstreamRST := f.downstreamRST()
	switch {
	case injectedRST && !chDelivered:
		return "rst injected to both ends, trigger consumed"
	case upstreamRST && !chDelivered:
		return "trigger rewritten to rst in flight"
	case chDelivered && downstreamRST:
		return "trigger passed, downstream rewritten to rst/ack"
	case chDelivered && !downstreamRST:
		return cellNone
	default:
		return "trigger silently dropped"
	}
}

// probeHTTPBlocked: a real TCP connection fetching a blocked Host. The
// client-visible outcome — branded blockpage, bare reset, origin page, or
// silence — is the §5/§6 attribution axis of the India paper.
func probeHTTPBlocked(m CensorModel) string { return httpProbe(m, CrossBlockedDomain) }

// probeHTTPControl: same fetch for an unblocked Host; every model must serve
// the origin (overblocking would show here).
func probeHTTPControl(m CensorModel) string { return httpProbe(m, DomainControl) }

func httpProbe(m CensorModel, host string) string {
	t := newCensorTestbed(m)
	conn := t.Client.Dial(t.ServerAddr(), 80, hostnet.DialOptions{})
	t.Sim.Run()
	conn.Send(httpx.FormatRequest("GET", host, "/"))
	t.Sim.Run()
	body := string(conn.Received)
	switch {
	case strings.Contains(body, "origin content of "+host):
		return "origin page served"
	case len(body) > 0:
		// An injected page: attribute it by censor ID, the way the India
		// paper fingerprints ISPs from their injected packets (§6.3).
		for _, p := range in.Profiles() {
			if p.CensorID != "" && strings.Contains(body, p.CensorID) {
				return "blockpage injected [censor-id: " + p.ISP + "]"
			}
		}
		return "blockpage injected [censor-id: unknown]"
	case conn.ResetSeen:
		return "rst injected, no page"
	case len(t.ServerHTTPHosts) == 0:
		return "request killed in flight, no response"
	default:
		return "request served but response lost"
	}
}

// probeDivergentHosts: fetch the IN profiles' per-ISP divergence rows. The
// India paper's central list finding is that each ISP enforces its own
// snapshot of the blocking orders (§4.3, Fig. 4) — so even two ISPs with the
// same mechanism are distinguishable by *which* names they block. The other
// models block none of these, making the cell a pure list fingerprint.
func probeDivergentHosts(m CensorModel) string {
	hosts := []string{"vimeo.com", "telegram.org", "archive.org"}
	var blocked []string
	for _, h := range hosts {
		if httpProbe(m, h) != "origin page served" {
			blocked = append(blocked, h)
		}
	}
	if len(blocked) == 0 {
		return "all served (shared stimulus only)"
	}
	return "blocked: " + strings.Join(blocked, ", ")
}

// probeDNSBlocked: an A query for the blocked name through the censor to the
// origin resolver. Forged-answer injection is TM's primary mechanism and one
// of India's; the TSPU does not touch DNS (its DNS-era predecessor did).
func probeDNSBlocked(m CensorModel) string {
	t := newCensorTestbed(m)
	answers, err := dnsQuery(t.Sim, t.Client, t.Server, 7)
	if err != nil {
		return "query encode failed"
	}
	return classifyDNSAnswers(answers)
}

// dnsQuery sends an A query for the blocked name from one testbed host to
// port 53 at the other, runs the sim, and returns every answer that came
// back to the querier.
func dnsQuery(s *sim.Sim, from, to *hostnet.Stack, id uint16) ([]*dnsx.Message, error) {
	var answers []*dnsx.Message
	from.BindUDP(5353, func(p *packet.Packet) {
		if msg, err := dnsx.Decode(p.UDP.Payload); err == nil {
			answers = append(answers, msg)
		}
	})
	wire, err := dnsx.NewQuery(id, CrossBlockedDomain).Encode()
	if err != nil {
		return nil, err
	}
	from.SendUDP(to.Addr(), 5353, 53, wire)
	s.Run()
	return answers, nil
}

func classifyDNSAnswers(answers []*dnsx.Message) string {
	if len(answers) == 0 {
		return "no answer"
	}
	first := answers[0]
	forged := len(first.Answers) > 0 && first.Answers[0].Addr != topo.CensorTestbedRealAnswer
	switch {
	case forged && len(answers) > 1:
		return "forged answer injected (races the legit reply)"
	case forged:
		return "forged answer injected (query consumed)"
	default:
		return "resolved by origin"
	}
}

// probeDNSReverse: the same query sent *into* the client network from the
// server side — no resolver lives there, so any answer is injected. This is
// exactly how the TM paper measured Turkmenistan from outside (§3.1).
func probeDNSReverse(m CensorModel) string {
	t := newCensorTestbed(m)
	answers, err := dnsQuery(t.Sim, t.Server, t.Client, 9)
	if err != nil {
		return "query encode failed"
	}
	if len(answers) == 0 {
		return "no answer (inbound queries not inspected)"
	}
	return "forged answer injected (bidirectional inspection)"
}

// probeRemoteFirst: the server opens the connection, then the client sends
// the blocked ClientHello. The TSPU's conntrack exempts remotely-originated
// flows (§5.2 role confusion); stateless censors cannot tell the difference.
func probeRemoteFirst(m CensorModel) string {
	f := NewFlow(testbedPath(m), 443)
	defer f.Close()
	f.R(packet.FlagSYN, nil)
	f.L(packet.FlagsSYNACK, nil)
	f.R(packet.FlagACK, nil)
	f.L(packet.FlagsPSHACK, CH(CrossBlockedDomain))
	injectedRST := f.LastLocalRST()
	upstreamRST := anyRST(f.RemoteGot)
	chDelivered := f.remoteDataCount() > 0
	f.R(packet.FlagsPSHACK, []byte("SERVERHELLO"))
	switch {
	case injectedRST && !chDelivered:
		return "acts (rst injected; no flow-origin state)"
	case upstreamRST && !chDelivered:
		return "acts (rewritten in flight; no flow-origin state)"
	case chDelivered && f.LastLocalRST():
		return "acts (downstream rewritten)"
	case chDelivered:
		return cellNone
	default:
		return "trigger silently dropped"
	}
}

// probeServerSideCH: the blocked ClientHello travels server→client on an
// established flow. Bidirectional censors fire; direction-bound ones pass.
func probeServerSideCH(m CensorModel) string {
	f := NewFlow(testbedPath(m), 443)
	defer f.Close()
	f.Handshake()
	before := len(f.LocalGot)
	f.R(packet.FlagsPSHACK, CH(CrossBlockedDomain))
	gotPayload, gotRST := false, false
	for _, a := range f.LocalGot[before:] {
		if a.Len > 0 {
			gotPayload = true
		}
		if a.Flags.Has(packet.FlagRST) {
			gotRST = true
		}
	}
	serverRST := anyRST(f.RemoteGot)
	switch {
	case gotPayload && !gotRST:
		return "passed (direction not inspected)"
	case gotRST && serverRST:
		return "acts (consumed; rst injected to both ends)"
	case gotRST:
		return "acts (rewritten to rst in flight)"
	default:
		return "silently dropped"
	}
}

// probeConntrack: open 40 distinct raw flows, then read the model's own
// flow-table occupancy — the state that residual blocking and exhaustion
// attacks live in. This cell is an oracle read (Censor.ConntrackSize), not
// an inference: no measurement from the client side could observe the
// table size, so it pins the model rather than a technique.
func probeConntrack(m CensorModel) string {
	t := newCensorTestbed(m)
	p := TestbedPath(t)
	for i := 0; i < 40; i++ {
		f := NewFlow(p, 443)
		f.Handshake()
		f.Close()
	}
	n := t.Censor.ConntrackSize()
	if n == 0 {
		return "stateless (0 flows tracked after 40 opens)"
	}
	return fmt.Sprintf("stateful (%d flows tracked after 40 opens)", n)
}

// probeFragLimit: the §7.2 fingerprint — a SYN in 45 fragments vs 46.
func probeFragLimit(m CensorModel) string {
	r45 := fragProbe(testbedPath(m), 443, 45, 0)
	r46 := fragProbe(testbedPath(m), 443, 46, 0)
	switch {
	case r45 && !r46:
		return "45 answered, 46 dropped (45-fragment queue limit)"
	case r45 && r46:
		return "45 and 46 both answered (no queue limit below host's 64)"
	case !r45 && r46:
		return "45 dropped, 46 answered (inverted limit?)"
	default:
		return "both dropped"
	}
}

// probeFragCH: the blocked ClientHello split across two IP fragments. None
// of the modeled censors reassemble before inspecting, so this is the shared
// evasion cell — pinned so a model that silently grows reassembly changes it.
func probeFragCH(m CensorModel) string {
	f := NewFlow(testbedPath(m), 443)
	defer f.Close()
	f.Handshake()
	ch := packet.NewTCP(f.Local.Addr(), f.Remote.Addr(), f.LPort, 443, packet.FlagsPSHACK, f.lseq, f.rseq, CH(CrossBlockedDomain))
	ch.IP.ID = f.Local.NextIPID()
	frags, err := packet.FragmentCount(ch, 2)
	if err != nil {
		return "fragmentation failed"
	}
	for _, fr := range frags {
		f.Local.Send(fr)
	}
	f.Sim.Run()
	chDelivered := f.remoteDataCount() > 0
	blocked := f.downstreamRST() || anyRST(f.RemoteGot)
	switch {
	case chDelivered && !blocked:
		return "evades (no reassembly before inspection)"
	case blocked:
		return "caught despite fragmentation"
	default:
		return "fragments dropped"
	}
}

// probeResidualReused / Fresh / Expiry: the §3 methodology triple — trigger
// on a port, then probe the same 4-tuple, a fresh port, and the same 4-tuple
// after the hold expires. Each cell reads its field from one run of the
// lab's residual check on a fresh testbed.
func probeResidualReused(m CensorModel) string {
	if residual(testbedPath(m), CrossBlockedDomain).ReusedPortBlocked {
		return "blocked (per-flow state persists)"
	}
	return "clean (no residual state)"
}

func probeResidualFresh(m CensorModel) string {
	if residual(testbedPath(m), CrossBlockedDomain).FreshPortBlocked {
		return "blocked (over-broad state)"
	}
	return "clean"
}

func probeResidualExpiry(m CensorModel) string {
	r := residual(testbedPath(m), CrossBlockedDomain)
	switch {
	case !r.ReusedPortBlocked:
		return "n/a (no residual state to expire)"
	case r.ReusedAfterExpiry:
		return "still blocked after 80s"
	default:
		return "blocked, then clean after 80s (hold expired)"
	}
}

// probeQUIC: a QUIC-shaped initial to udp/443. Only the TSPU models a QUIC
// filter; every other censor forwards UDP it does not parse.
func probeQUIC(m CensorModel) string {
	t := newCensorTestbed(m)
	got := 0
	sport := t.Client.EphemeralPort()
	t.Client.BindUDP(sport, func(p *packet.Packet) { got++ })
	t.Client.SendUDP(t.ServerAddr(), sport, 443, quicTriggerPayload())
	t.Sim.Run()
	if got == 0 {
		return "initial dropped (QUIC filter)"
	}
	return "passed (server flight received)"
}

// probeLocalizeTLS / probeLocalizeHTTP: TTL-limited trigger ladders (§7.1),
// the lab's ladder with a fresh testbed per attempt. The cell reports the
// first TTL at which the trigger produced observable interference. The
// censor sits past two routers, so an at-the-censor reaction first appears
// at TTL 3; a censor whose only signal is an in-flight rewrite needs the
// rewritten packet to *survive to the destination*, which takes one more
// hop.
func probeLocalizeTLS(m CensorModel) string {
	return ladderCell(m, 443, tlsTTLTrigger(CrossBlockedDomain))
}

func probeLocalizeHTTP(m CensorModel) string {
	return ladderCell(m, 80, func(f *Flow, ttl uint8) bool {
		f.Handshake()
		before := len(f.LocalGot)
		f.LTTL(ttl, packet.FlagsPSHACK, httpx.FormatRequest("GET", CrossBlockedDomain, "/"))
		return len(f.LocalGot) > before || anyRST(f.RemoteGot)
	})
}

func ladderCell(m CensorModel, port uint16, probe func(f *Flow, ttl uint8) bool) string {
	ttl := ttlLadder(func() Path { return testbedPath(m) }, port, topo.CensorTestbedPathRouters+2, probe)
	switch ttl {
	case 0:
		return "not localizable (no ttl-limited interference)"
	case topo.CensorTestbedHopTTL:
		return fmt.Sprintf("first interference at probe ttl %d (censor link)", ttl)
	default:
		return fmt.Sprintf("first interference at probe ttl %d (rewrite must reach destination)", ttl)
	}
}
