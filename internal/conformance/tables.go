package conformance

import "time"

// This file is the oracle's spec sheet: every number and rule the oracle
// enforces, transcribed from the paper and held as data. oracle.go is a thin
// interpreter over these tables; it deliberately shares no constants or code
// paths with internal/tspu, so a bug in the device model cannot be mirrored
// here by construction. DESIGN.md ("Conformance oracle") maps each table back
// to its paper table or figure.

// oState is the oracle's connection-tracking state (§5.3.3).
//
//tspuvet:closedenum
type oState int

// Oracle conntrack states.
const (
	oSynSent oState = iota
	oSynRecv
	oEstablished
)

// oEvent classifies one observed TCP segment for the transition table. The
// classification mirrors Table 8's vocabulary: SYN/ACK outranks SYN outranks
// ACK; anything else (bare FIN, RST, NULL) carries no transition.
//
//tspuvet:closedenum
type oEvent int

// Oracle conntrack events.
const (
	evSYNACK oEvent = iota
	evSYN
	evACK
	evOther
)

// oBlock is the oracle's blocking-behavior identifier (§5.2's six behaviors).
//
//tspuvet:closedenum
type oBlock int

// Oracle block types, in the fixed order state lines report them.
const (
	oIPBlock oBlock = iota
	oSNI1
	oSNI2
	oSNI3
	oSNI4
	oQUIC
)

// timeoutRow pins one measured lifetime. Cite names the exact source row so a
// drifted constant fails loudly with a paper reference.
type timeoutRow struct {
	Name    string
	Seconds int
	Cite    string
}

// timeoutTable transcribes Table 2 (§5.3.3) plus the fragment-queue timeout
// of §5.3.1. These are the only lifetimes the oracle knows.
var timeoutTable = []timeoutRow{
	{"SYN_SENT", 60, "Table 2: TCP SYN_SENT 60 s"},
	{"SYN_RCVD", 105, "Table 2: TCP SYN_RCVD 105 s"},
	{"ESTABLISHED", 480, "Table 2: TCP ESTABLISHED 480 s"},
	{"SNI-I", 75, "Table 2: SNI-I blocking state 75 s"},
	{"SNI-II", 420, "Table 2: SNI-II blocking state 420 s"},
	{"SNI-IV", 40, "Table 2: SNI-IV blocking state 40 s"},
	{"QUIC", 420, "Table 2: QUIC blocking state 420 s"},
	{"FRAG", 5, "§5.3.1: fragment queues discarded after ~5 s"},
}

// timeoutOf resolves a row by name. Panics on an unknown name: the tables are
// internally consistent or the oracle is wrong.
func timeoutOf(name string) time.Duration {
	for _, r := range timeoutTable {
		if r.Name == name {
			return time.Duration(r.Seconds) * time.Second
		}
	}
	panic("conformance: no timeout row " + name)
}

// stateTimeoutName maps a conntrack state to its Table 2 row.
var stateTimeoutName = map[oState]string{
	oSynSent:     "SYN_SENT",
	oSynRecv:     "SYN_RCVD",
	oEstablished: "ESTABLISHED",
}

// ctRule is one row of the conntrack transition table (§5.3.2/§5.3.3,
// Table 8, Fig. 4). Rules are evaluated in order; the first match applies.
// From == anyState matches every state.
type ctRule struct {
	Event oEvent
	From  oState
	// NeedSawSYNACK gates the rule on a previously-seen SYN/ACK.
	NeedSawSYNACK bool
	// NeedBare gates on a pure ACK segment (flags exactly ACK, no payload).
	NeedBare bool
	// NeedOpposite gates on the segment coming from the peer opposite the
	// recorded origin.
	NeedOpposite bool
	To           oState
	// Restart replaces the whole entry: tracking begins again as a
	// remote-originated ESTABLISHED flow, discarding flags and any installed
	// blocking state.
	Restart bool
	// MarkRemoteSYN sets the role-confusion flag when a local-origin flow
	// sees a SYN from the remote peer (Fig. 4's green paths).
	MarkRemoteSYN bool
	Cite          string
}

const anyState oState = -1

// ctTransitions is the oracle's transition table for segments on an existing
// entry.
var ctTransitions = []ctRule{
	// SYN/ACK completes (or re-completes) a handshake from any half-open
	// state and always records that one was seen.
	{Event: evSYNACK, From: oSynSent, To: oEstablished,
		Cite: "Fig. 4: Ls;Rsa reaches ESTABLISHED"},
	{Event: evSYNACK, From: oSynRecv, To: oEstablished,
		Cite: "Fig. 4: SYN_RCVD + SYN/ACK reaches ESTABLISHED"},
	{Event: evSYNACK, From: oEstablished, To: oEstablished,
		Cite: "§5.3.3: activity refreshes the established timer"},
	// A remote SYN on a local-origin flow confuses the role heuristic; a SYN
	// in SYN_SENT (either side) moves to SYN_RCVD.
	{Event: evSYN, From: oSynSent, To: oSynRecv, MarkRemoteSYN: true,
		Cite: "Table 8: Ls;Rs;Lt PASS via role confusion; Fig. 4 green path"},
	{Event: evSYN, From: oSynRecv, To: oSynRecv, MarkRemoteSYN: true,
		Cite: "Fig. 4: repeated SYNs hold SYN_RCVD"},
	{Event: evSYN, From: oEstablished, To: oEstablished, MarkRemoteSYN: true,
		Cite: "Fig. 4: SYNs on established flows only mark confusion"},
	// An unsolicited bare ACK from the opener's peer in SYN_SENT restarts
	// tracking as a remote-originated connection — the only reading
	// consistent with Table 8's "Ls;Ra;Lt -> PASS" given that remote-first
	// sequences are never valid prefixes.
	{Event: evACK, From: oSynSent, NeedBare: true, NeedOpposite: true,
		To: oEstablished, Restart: true,
		Cite: "Table 8: Ls;Ra;Lt PASS (entry replaced, origin remote)"},
	// ACK in SYN_RCVD promotes only after a real SYN/ACK.
	{Event: evACK, From: oSynRecv, NeedSawSYNACK: true, To: oEstablished,
		Cite: "Fig. 4: three-way handshake completion"},
}

// ctInitialState maps the first segment of a flow to its entry state. Flows
// first seen as data or bare ACKs age like established connections; UDP and
// blocked-IP transports enter here too (as evOther).
var ctInitialState = map[oEvent]oState{
	evSYNACK: oSynRecv,
	evSYN:    oSynSent,
	evACK:    oEstablished,
	evOther:  oEstablished,
}

// enforceKind is how an installed blocking state treats subsequent packets.
//
//tspuvet:closedenum
type enforceKind int

// Enforcement mechanisms (§5.2).
const (
	// enforceRewriteDownstream rewrites remote→local packets to
	// payload-stripped RST/ACK; local→remote packets pass untouched.
	enforceRewriteDownstream enforceKind = iota
	// enforceAllowanceDrop delivers a fixed number of further packets from
	// either side, then drops symmetrically.
	enforceAllowanceDrop
	// enforceThrottle polices the flow's payload bytes with a token bucket.
	enforceThrottle
	// enforceDropBoth drops every packet from both sides.
	enforceDropBoth
)

// behaviorRow describes one SNI/QUIC blocking behavior: its trigger
// precedence, whether the triggering packet itself is delivered, the hold
// lifetime (a timeoutTable row name), and the enforcement mechanism.
type behaviorRow struct {
	Block oBlock
	// Precedence orders trigger evaluation (lower fires first). SNI-IV is a
	// backup: it is evaluated only if SNI-I did not fire (§5.2).
	Precedence int
	// HoldRow names the timeoutTable row for the blocking-state lifetime.
	// Note the paper's quirk: SNI-III throttling has no dedicated row in
	// Table 2 — its hold ages like an ESTABLISHED flow.
	HoldRow string
	// TriggerDelivered reports whether the trigger packet passes (SNI-IV is
	// the only behavior that swallows its trigger).
	TriggerDelivered bool
	Enforce          enforceKind
	// ConfusionExempt: the behavior does not fire when the role heuristic
	// was confused by a remote SYN (Fig. 4 green paths exempt only SNI-I).
	ConfusionExempt bool
	Cite            string
}

// behaviorTable transcribes §5.2's four SNI behaviors and the QUIC filter.
var behaviorTable = []behaviorRow{
	{Block: oSNI3, Precedence: 0, HoldRow: "ESTABLISHED", TriggerDelivered: true,
		Enforce: enforceThrottle,
		Cite:    "§5.2: SNI-III throttling (Feb 26–Mar 4 window), ~650 B/s policing"},
	{Block: oSNI1, Precedence: 1, HoldRow: "SNI-I", TriggerDelivered: true,
		Enforce: enforceRewriteDownstream, ConfusionExempt: true,
		Cite: "§5.2: SNI-I RST/ACK rewriting; Fig. 4: skipped on confused roles"},
	{Block: oSNI4, Precedence: 2, HoldRow: "SNI-IV", TriggerDelivered: false,
		Enforce: enforceDropBoth,
		Cite:    "§5.2: SNI-IV backup drops everything including the trigger"},
	{Block: oSNI2, Precedence: 3, HoldRow: "SNI-II", TriggerDelivered: true,
		Enforce: enforceAllowanceDrop,
		Cite:    "§5.2: SNI-II delivers a few more packets, then drops both ways"},
}

// sni2Allowance is the number of post-trigger packets SNI-II delivers. The
// paper measures "five to eight"; conformance runs configure the device to
// the fixed midpoint so the oracle can predict it exactly.
const sni2Allowance = 6

// throttleRow transcribes the SNI-III policing parameters (§5.2): a policer
// (drops, never queues) at 600–700 B/s — modeled at 650 — with one MSS of
// burst headroom.
var throttleRow = struct {
	RateBps int
	BurstB  int
	Cite    string
}{650, 1460, "§5.2: policing at 600–700 bytes/s, cf. 2021 Twitter throttling"}

// chVisibleTable records which ClientHello shapes expose a plaintext SNI to
// a bounded single-record structural parser (§5.2 Fig. 13, §8 evasions).
var chVisibleTable = map[CHMode]bool{
	CHNone:    false,
	CHPlain:   true,  // well-formed single record within inspection depth
	CHPadded:  false, // §8: padding pushes the record past the parse depth
	CHPrepend: false, // §8: non-handshake first record defeats the parser
	CHECH:     false, // [40]: encrypted_client_hello carries no plaintext SNI
}

// quicRule transcribes the QUIC fingerprint (§5.2, Fig. 14): UDP to port
// 443, at least 1001 payload bytes, version bytes 0x00000001 at offsets 1–4.
var quicRule = struct {
	Port   uint16
	MinLen int
	Cite   string
}{443, 1001, "Fig. 14: ≥1001-byte UDP:443 payload with version 1"}

// udpKindRow gives the oracle's view of each UDP payload shape in the trace
// vocabulary: its wire length and whether the version bytes spell QUIC v1.
var udpKindTable = map[UDPKind]struct {
	Len  int
	IsV1 bool
}{
	UDPSmall:       {100, false},
	UDPQUICv1:      {1200, true},
	UDPQUICv1Short: {900, true}, // v1 bytes but under the 1001-byte floor
	UDPQUICDraft29: {1200, false},
}

// fragRules transcribes the fragment-engine behavior (§5.3.1, Fig. 3, §7.2).
var fragRules = struct {
	QueueLimit int    // §7.2: the 45-fragment fingerprint
	TimeoutRow string // timeoutTable row for queue lifetime
	Cite       string
}{45, "FRAG", "§5.3.1/Fig. 3: buffer until last, forward unreassembled, " +
	"rewrite TTLs to the first fragment's, poison on duplicate/overlap or >45 fragments"}

// ipBlockRow transcribes IP-based blocking (§5.2): applied to all protocols
// regardless of payload or port; outbound response-shaped TCP (ACK set) is
// rewritten to a payload-stripped RST/ACK, outbound initiation-shaped
// traffic is dropped, inbound from the blocked address passes.
var ipBlockRow = struct {
	Cite string
}{"§5.2: IP blocking drops outbound, rewrites response-shaped packets, ICMP dropped both ways"}
