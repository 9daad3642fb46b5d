package conformance

import (
	"sort"
	"strings"
	"time"

	"tspusim/internal/packet"
)

// Oracle is the paper-derived second implementation of the TSPU state
// machine. It interprets the tables in tables.go over a trace and predicts
// the exact observation stream — delivered packets (with rewrites and TTL
// rewriting) and device-state counters — that a conforming device must
// produce. It holds no reference to internal/tspu.
//
// The oracle does depend on the shared trace vocabulary (Flows, Step) and on
// the executor's payload builders for wire *lengths*; those are inputs, not
// semantics — every behavioral decision comes from tables.go.
type Oracle struct {
	now   time.Duration
	pol   oPolicy
	flows map[int]*oFlow
	frags map[oFragKey]*oQueue
	// maxFlows bounds the flow table (zero: unbounded); born stamps each
	// created entry for the FIFO capacity model (see insert).
	maxFlows, born int

	handled, fragBuf, dropped, rewritten, throttled int
	trig                                            [6]int // indexed by oBlock
}

type oPolicy struct {
	sni1, sni2, sni4, thr map[string]bool
	throttleActive        bool
	quicFilter            bool
}

// oFlow is one oracle conntrack entry.
type oFlow struct {
	born         int // creation order: lower is older
	state        oState
	originLocal  bool
	expires      time.Duration
	sawRemoteSYN bool
	sawSYNACK    bool
	block        *oBlockState
	ipKnown      bool
}

// oBlockState is an installed blocking hold.
type oBlockState struct {
	typ       oBlock
	until     time.Duration
	allowance int
	// token bucket state for enforceThrottle, replicated with the same
	// arithmetic order as a policing bucket: refill, cap, then deduct.
	tokens float64
	last   time.Duration
}

type oFragKey struct {
	local bool
	id    uint16
}

type ofrag struct {
	off, ln int
	ttl     uint8
	mf      bool
}

type oQueue struct {
	frags    []ofrag
	firstTTL uint8
	haveTTL  bool
	total    int
	poisoned bool
	deadline time.Duration
}

// NewOracle returns an oracle holding the conformance base policy.
func NewOracle() *Oracle {
	o := &Oracle{
		flows: make(map[int]*oFlow),
		frags: make(map[oFragKey]*oQueue),
		pol: oPolicy{
			sni1:           domainSet(baseSNI1),
			sni2:           domainSet(baseSNI2),
			sni4:           domainSet(baseSNI4),
			thr:            domainSet(baseThrottle),
			throttleActive: true,
			quicFilter:     true,
		},
	}
	return o
}

func domainSet(ds []string) map[string]bool {
	m := make(map[string]bool, len(ds))
	for _, d := range ds {
		m[normDomain(d)] = true
	}
	return m
}

// normDomain is the one spelling of a name that set entries and lookups are
// compared in: every trailing dot stripped and only ASCII letters
// lower-cased. DNS names on the wire are ASCII, and Unicode folding could
// alias a non-ASCII entry into an ASCII name.
func normDomain(name string) string {
	b := []byte(strings.TrimRight(name, "."))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// matches reports whether name or a parent domain of name is in set.
func (p *oPolicy) matches(set map[string]bool, name string) bool {
	name = normDomain(name)
	for d := range set {
		if name == d || strings.HasSuffix(name, "."+d) {
			return true
		}
	}
	return false
}

// classify maps an SNI to the behaviors it triggers under the current
// policy, keyed by oBlock.
func (p *oPolicy) classify(sni string) map[oBlock]bool {
	return map[oBlock]bool{
		oSNI1: p.matches(p.sni1, sni),
		oSNI2: p.matches(p.sni2, sni),
		oSNI4: p.matches(p.sni4, sni),
		oSNI3: p.throttleActive && p.matches(p.thr, sni),
	}
}

// Apply consumes one trace step and returns the delivered-packet observation
// lines the device must produce for it, in delivery order.
func (o *Oracle) Apply(s Step) []string {
	switch s.Kind {
	case StepAdvance:
		o.advance(s.Adv)
		return nil
	case StepPolicy:
		o.applyPolicy(s)
		return nil
	case StepMaxFlows:
		o.maxFlows = s.MaxFlows
		return nil
	case StepTCP:
		return o.stepTCP(s)
	case StepUDP:
		return o.stepUDP(s)
	case StepICMP:
		return o.stepICMP(s)
	case StepFrag:
		return o.stepFrag(s.Local, s.FragID, s.FragOff, s.FragLen, s.FragMF, s.TTL)
	case StepFragFlood:
		var out []string
		for i := 0; i < s.Count; i++ {
			out = append(out, o.stepFrag(s.Local, s.FragID, i*8, 8, true, s.TTL)...)
		}
		return out
	}
	return nil
}

// advance moves the virtual clock and fires fragment-queue timeouts whose
// deadline falls at or before the new time (the event queue fires events
// with timestamps <= the run deadline). Conntrack and blocking holds expire
// lazily, at next lookup, exactly like the device.
func (o *Oracle) advance(d time.Duration) {
	o.now += d
	for k, q := range o.frags {
		if q.deadline <= o.now {
			delete(o.frags, k)
		}
	}
}

func (o *Oracle) applyPolicy(s Step) {
	switch s.Pol {
	case PolThrottle:
		o.pol.throttleActive = s.On
	case PolQUICFilter:
		o.pol.quicFilter = s.On
	case PolAddDomain, PolRemoveDomain:
		var set map[string]bool
		switch s.Set {
		case "sni1":
			set = o.pol.sni1
		case "sni2":
			set = o.pol.sni2
		case "sni4":
			set = o.pol.sni4
		case "throttle":
			set = o.pol.thr
		default:
			return
		}
		d := normDomain(s.Domain)
		if s.Pol == PolAddDomain {
			set[d] = true
		} else {
			delete(set, d)
		}
	}
}

// classifyTCP maps a segment to its transition-table event, also reporting
// whether it is a bare ACK (flags exactly ACK, empty payload).
func classifyTCP(flags packet.TCPFlags, plen int) (oEvent, bool) {
	switch {
	case flags.Has(packet.FlagsSYNACK):
		return evSYNACK, false
	case flags.Has(packet.FlagSYN):
		return evSYN, false
	case flags.Has(packet.FlagACK):
		return evACK, flags == packet.FlagACK && plen == 0
	}
	return evOther, false
}

// observe runs the conntrack transition table for one segment on the flow
// slot and returns the (possibly replaced) entry. Mirrors the lazy-expiry
// discipline: a stale entry is removed at lookup and tracking restarts.
func (o *Oracle) observe(slot int, ev oEvent, bare, dirLocal bool) *oFlow {
	f := o.flows[slot]
	if f != nil && o.now >= f.expires {
		delete(o.flows, slot)
		f = nil
	}
	if f == nil {
		st := ctInitialState[ev]
		f = &oFlow{
			state:       st,
			originLocal: dirLocal,
			sawSYNACK:   ev == evSYNACK,
			expires:     o.now + timeoutOf(stateTimeoutName[st]),
		}
		o.insert(slot, f)
		return f
	}
	if ev == evSYNACK {
		f.sawSYNACK = true
	}
	for _, r := range ctTransitions {
		if r.Event != ev {
			continue
		}
		if r.From != anyState && r.From != f.state {
			continue
		}
		if r.NeedBare && !bare {
			continue
		}
		if r.NeedOpposite && f.originLocal == dirLocal {
			continue
		}
		if r.NeedSawSYNACK && !f.sawSYNACK {
			continue
		}
		if r.MarkRemoteSYN && !dirLocal && f.originLocal {
			f.sawRemoteSYN = true
		}
		if r.Restart {
			delete(o.flows, slot)
			nf := &oFlow{
				state:       r.To,
				originLocal: false,
				expires:     o.now + timeoutOf(stateTimeoutName[r.To]),
			}
			o.insert(slot, nf)
			return nf
		}
		f.state = r.To
		break
	}
	// Activity refreshes the state timer but never shortens an installed
	// blocking hold.
	exp := o.now + timeoutOf(stateTimeoutName[f.state])
	if f.block != nil && f.block.until > exp {
		exp = f.block.until
	}
	f.expires = exp
	return f
}

// insert adds a newly created entry under the flow-table bound, the model of
// §8's provisioning question: capacity is FIFO by entry. Every creation —
// first sight, re-creation after lazy expiry, the bare-ACK restart — stamps
// the entry as the newest, and while the table is over the bound the entry
// with the oldest stamp is evicted, so never the newcomer. Entries that
// expired but were not yet looked up still occupy the table, as on the device.
func (o *Oracle) insert(slot int, f *oFlow) {
	o.born++
	f.born = o.born
	o.flows[slot] = f
	for o.maxFlows > 0 && len(o.flows) > o.maxFlows {
		victim := slot
		for s, g := range o.flows {
			if g.born < o.flows[victim].born {
				victim = s
			}
		}
		delete(o.flows, victim)
	}
}

// install puts a blocking hold on the flow and extends its lifetime to cover
// the hold, as the device's conntrack does.
func (o *Oracle) install(f *oFlow, typ oBlock, holdRow string, allowance int) {
	o.trig[typ]++
	b := &oBlockState{typ: typ, until: o.now + timeoutOf(holdRow), allowance: allowance}
	if typ == oSNI3 {
		b.tokens = float64(throttleRow.BurstB)
		b.last = o.now
	}
	f.block = b
	if b.until > f.expires {
		f.expires = b.until
	}
}

// enforceOf maps a block type to its enforcement mechanism.
func enforceOf(typ oBlock) enforceKind {
	if typ == oQUIC {
		return enforceDropBoth
	}
	for _, row := range behaviorTable {
		if row.Block == typ {
			return row.Enforce
		}
	}
	return enforceDropBoth
}

// admit replicates the policing bucket: refill at the table rate capped at
// the burst, then pass zero-length packets unconditionally, then deduct.
func (b *oBlockState) admit(n int, now time.Duration) bool {
	if now > b.last {
		b.tokens += float64(throttleRow.RateBps) * (now - b.last).Seconds()
		if b.tokens > float64(throttleRow.BurstB) {
			b.tokens = float64(throttleRow.BurstB)
		}
		b.last = now
	}
	if n == 0 {
		return true
	}
	if float64(n) <= b.tokens {
		b.tokens -= float64(n)
		return true
	}
	return false
}

func (o *Oracle) stepTCP(s Step) []string {
	o.handled++
	fl := Flows[s.Flow]
	plen := len(buildTCPPayload(s))
	ev, bare := classifyTCP(s.Flags, plen)
	sport, dport := fl.LPort, fl.RPort
	if !s.Local {
		sport, dport = fl.RPort, fl.LPort
	}
	passLine := deliverLine(s.Local, fmtTCPObs(sport, dport, s.Flags, plen))

	// IP-based blocking comes first and sidesteps all SNI machinery
	// (ipBlockRow): observe for the flow table, decide once per entry, then
	// rewrite response-shaped outbound packets and drop the rest; inbound
	// from the blocked address passes.
	if fl.Remote == BlockedAddr {
		f := o.observe(s.Flow, ev, bare, s.Local)
		if !f.ipKnown {
			f.ipKnown = true
			o.trig[oIPBlock]++
		}
		if s.Local {
			if s.Flags.Has(packet.FlagACK) {
				o.rewritten++
				return []string{deliverLine(true, fmtTCPObs(sport, dport, packet.FlagsRSTACK, 0))}
			}
			o.dropped++
			return nil
		}
		return []string{passLine}
	}

	f := o.observe(s.Flow, ev, bare, s.Local)

	// An unexpired hold enforces before any new trigger detection.
	if b := f.block; b != nil && o.now < b.until {
		switch enforceOf(b.typ) {
		case enforceRewriteDownstream:
			if !s.Local {
				o.rewritten++
				return []string{deliverLine(false, fmtTCPObs(sport, dport, packet.FlagsRSTACK, 0))}
			}
			return []string{passLine}
		case enforceAllowanceDrop:
			if b.allowance > 0 {
				b.allowance--
				return []string{passLine}
			}
			o.dropped++
			return nil
		case enforceThrottle:
			if b.admit(plen, o.now) {
				return []string{passLine}
			}
			o.throttled++
			return nil
		case enforceDropBoth:
			o.dropped++
			return nil
		}
	}

	// Trigger detection: local→remote payloads to :443 only, and never on
	// remote-originated flows (§5.3.2: remote-first sequences are not valid
	// prefixes).
	if s.Local && plen > 0 && fl.RPort == quicRule.Port {
		if !f.originLocal {
			return []string{passLine}
		}
		sni := ""
		if chVisibleTable[s.CH] {
			sni = s.Domain
		}
		if sni != "" {
			cls := o.pol.classify(sni)
			confused := f.originLocal && f.sawRemoteSYN
			rows := make([]behaviorRow, len(behaviorTable))
			copy(rows, behaviorTable)
			sort.Slice(rows, func(i, j int) bool { return rows[i].Precedence < rows[j].Precedence })
			for _, row := range rows {
				if !cls[row.Block] {
					continue
				}
				if row.ConfusionExempt && confused {
					continue
				}
				allowance := 0
				if row.Enforce == enforceAllowanceDrop {
					allowance = sni2Allowance
				}
				o.install(f, row.Block, row.HoldRow, allowance)
				if row.TriggerDelivered {
					return []string{passLine}
				}
				o.dropped++
				return nil
			}
		}
	}
	return []string{passLine}
}

func (o *Oracle) stepUDP(s Step) []string {
	o.handled++
	fl := Flows[s.Flow]
	row := udpKindTable[s.UDP]
	sport, dport := fl.LPort, fl.RPort
	if !s.Local {
		sport, dport = fl.RPort, fl.LPort
	}
	f := o.observe(s.Flow, evOther, false, s.Local)
	if b := f.block; b != nil && o.now < b.until {
		o.dropped++
		return nil
	}
	if o.pol.quicFilter && s.Local && fl.RPort == quicRule.Port &&
		row.Len >= quicRule.MinLen && row.IsV1 {
		// The fingerprinted Initial itself is delivered; everything after is
		// dropped for the hold's lifetime.
		o.install(f, oQUIC, "QUIC", 0)
	}
	return []string{deliverLine(s.Local, fmtUDPObs(sport, dport, row.Len))}
}

func (o *Oracle) stepICMP(s Step) []string {
	o.handled++
	if s.Blocked {
		// ICMP involving blocked addresses is dropped in both directions.
		o.dropped++
		return nil
	}
	return []string{deliverLine(s.Local, fmtICMPObs(8))}
}

func (o *Oracle) stepFrag(local bool, id uint16, off, ln int, mf bool, ttl uint8) []string {
	o.handled++
	if !mf && off == 0 {
		// Not a fragment at all: an opaque packet the device passes through.
		return []string{deliverLine(local, fmtRawObs(id, 0, ln, false, ttl))}
	}
	o.fragBuf++
	key := oFragKey{local: local, id: id}
	q := o.frags[key]
	if q == nil {
		q = &oQueue{total: -1, deadline: o.now + timeoutOf(fragRules.TimeoutRow)}
		o.frags[key] = q
	}
	if q.poisoned {
		return nil
	}
	for _, fr := range q.frags {
		if off < fr.off+fr.ln && fr.off < off+ln {
			q.poisoned = true
			q.frags = nil
			return nil
		}
	}
	if len(q.frags)+1 > fragRules.QueueLimit {
		q.poisoned = true
		q.frags = nil
		return nil
	}
	q.frags = append(q.frags, ofrag{off: off, ln: ln, ttl: ttl, mf: mf})
	if off == 0 {
		q.firstTTL = ttl
		q.haveTTL = true
	}
	if !mf {
		q.total = off + ln
	}
	if !q.complete() {
		return nil
	}
	// Complete: forward every fragment individually in offset order, TTLs
	// rewritten to the zero-offset fragment's arrival TTL (Fig. 3).
	delete(o.frags, key)
	sort.Slice(q.frags, func(i, j int) bool { return q.frags[i].off < q.frags[j].off })
	var out []string
	for _, fr := range q.frags {
		out = append(out, deliverLine(local, fmtRawObs(id, fr.off, fr.ln, fr.mf, q.firstTTL)))
	}
	return out
}

func (q *oQueue) complete() bool {
	if q.total < 0 || !q.haveTTL {
		return false
	}
	frs := make([]ofrag, len(q.frags))
	copy(frs, q.frags)
	sort.Slice(frs, func(i, j int) bool { return frs[i].off < frs[j].off })
	covered := 0
	for _, fr := range frs {
		if fr.off != covered {
			return false
		}
		covered += fr.ln
	}
	return covered == q.total
}

// StateLine renders the oracle's predicted device-state counters in the
// executor's fixed format.
func (o *Oracle) StateLine() string {
	return fmtStateObs(o.now, len(o.flows), len(o.frags),
		o.handled, o.fragBuf, o.dropped, o.rewritten, o.throttled, o.trig)
}
