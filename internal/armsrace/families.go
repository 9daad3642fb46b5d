// Package armsrace closes the loop the paper leaves open in §8: every
// circumvention strategy it reports is one move in an arms race the censor
// gets to answer. The harness runs a Geneva-style evasion search
// (internal/evolve) against each modeled censor family, then lets the censor
// counter-evolve between rounds by picking from a bounded, table-driven menu
// of countermeasures — the upgrades the paper's own measurements show the
// TSPU operators shipping (TTL-junk mitigation §8, QUIC filtering §5.3) and
// the ones the comparison censors would need (reassembly, stream scanning).
// Every surviving evasion is frozen as a replayable golden trace under
// testdata/evasions/, so a model change that silently breaks or un-breaks a
// strategy fails a pinned test, not a narrative.
package armsrace

import (
	"tspusim/internal/circumvent"
	"tspusim/internal/measure"
	"tspusim/internal/netem"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// CorpusSeed seeds every simulation the arms race runs. The evasion corpus is
// a conformance artifact like the fingerprint matrix: it describes the model
// tables, not a sampled population, so it deliberately ignores the lab seed
// and is byte-identical across replicas and worker counts.
const CorpusSeed uint64 = 0x7575

// followUpCount is the arms race's sustained-usability probe depth; the
// pinned traces record it, and it keeps ~800 trials per run cheap. Four does
// not cross every modeled grace period — the TSPU's SNI-II allowance is 5–8
// packets — but the race's tspu family lists its stimulus under SNI-I.
const followUpCount = 4

// probeFor maps a trigger plane to the race's probe on it: the shared
// stimulus on the plane's standard port.
func probeFor(kind circumvent.ProbeKind) circumvent.Probe {
	p := circumvent.Probe{Kind: kind, Port: 443, Domain: measure.CrossBlockedDomain, FollowUps: followUpCount}
	if kind == circumvent.ProbeHTTP {
		p.Port = 80
	}
	return p
}

// Countermeasure is one entry of a family's upgrade menu. Defeats is the
// censor operator's (perfect) knowledge of which mechanisms the upgrade
// addresses — used only to *choose* from the menu; whether the upgrade
// actually kills a pinned evasion is decided by replaying it, never assumed.
type Countermeasure struct {
	Name string
	// Note says what the upgrade models.
	Note string
	// Defeats reports whether the countermeasure targets any of the genome's
	// active mechanisms.
	Defeats func(g circumvent.Genome) bool
	// Reconfig, when non-nil, mutates the TSPU device config (the ablation
	// knobs are the counter-evolution surface for the stateful model).
	Reconfig func(c *tspu.Config)
	// Watcher, when non-nil, builds a fresh middlebox attached to the censor
	// link in front of the base model (topo.BuildCensorTestbedBare's pre
	// slot).
	Watcher func() netem.Middlebox
}

// Family is one censor lineage in the race: a model of the cross-censor
// table (its Build gets the applied countermeasures' Reconfig as tune;
// watchers attach separately), the probe its tables block, and the bounded
// menu it may counter-evolve from.
type Family struct {
	measure.CensorModel
	Probe circumvent.Probe
	Menu  []Countermeasure
}

// tspuMenu is the TSPU's upgrade path: its config ablation knobs are exactly
// the counter-moves §8 discusses, plus a parser-bypass byte scanner for the
// record-prepending hole in the single-record SNI parser.
func tspuMenu() []Countermeasure {
	return []Countermeasure{
		{
			Name: "reassemble-tcp",
			Note: "reassemble upstream TCP before SNI inspection (kills segmentation and small-window)",
			Defeats: func(g circumvent.Genome) bool {
				return g.SegmentSize > 0 || g.ServerWindow > 0
			},
			Reconfig: func(c *tspu.Config) { c.ReassembleTCP = true },
		},
		{
			Name:     "frag-limit-2",
			Note:     "tighten the fragment-queue cap from 45 to 2 so a split ClientHello poisons its queue",
			Defeats:  func(g circumvent.Genome) bool { return g.FragmentPayload > 0 },
			Reconfig: func(c *tspu.Config) { c.FragLimit = 2 },
		},
		{
			Name:     "deep-inspect",
			Note:     "raise the SNI parser's inspection depth past any padding extension",
			Defeats:  func(g circumvent.Genome) bool { return g.PadBeforeSNI > 0 },
			Reconfig: func(c *tspu.Config) { c.InspectDepth = 4096 },
		},
		{
			Name: "strict-roles",
			Note: "apply triggers regardless of inferred flow roles (kills split-handshake and delay)",
			Defeats: func(g circumvent.Genome) bool {
				return g.ServerSplit || g.ServerDelaySec > 0
			},
			Reconfig: func(c *tspu.Config) { c.StrictRoles = true },
		},
		{
			Name:    "byte-scan",
			Note:    "raw per-packet byte scan beside the record parser (kills record-prepending)",
			Defeats: func(g circumvent.Genome) bool { return g.PrependRecord },
			Watcher: func() netem.Middlebox { return newByteScan(measure.CrossBlockedDomain, topo.CensorTestbedLocalDir) },
		},
	}
}

// scanMenu is the upgrade path of the stateless per-packet censors (keyword
// DPI, TM, the IN profiles): they cannot grow TSPU-style conntrack knobs, but
// they can bolt reassembly middleboxes in front of the matcher.
func scanMenu() []Countermeasure {
	return []Countermeasure{
		{
			Name:    "frag-reassembly",
			Note:    "reassemble IP fragments in front of the matcher (the fragment engine forwarded them blind)",
			Defeats: func(g circumvent.Genome) bool { return g.FragmentPayload > 0 },
			Watcher: func() netem.Middlebox { return newFragReassembler(topo.CensorTestbedLocalDir) },
		},
		{
			Name: "stream-scan",
			Note: "accumulate each flow's bytes and match across packet boundaries and record structure",
			Defeats: func(g circumvent.Genome) bool {
				return g.SegmentSize > 0 || g.ServerWindow > 0 || g.PrependRecord || g.PadBeforeSNI > 0
			},
			Watcher: func() netem.Middlebox { return newStreamScan(measure.CrossBlockedDomain, topo.CensorTestbedLocalDir) },
		},
	}
}

// Families returns the race's lineages in corpus order: the cross-censor
// battery's six models, with the TSPU's rand stream and the keyword DPI's
// label under "armsrace", each probed on the plane its tables block (the
// pinned fingerprint matrix shows tspu/tm/jio/keyword block the TLS SNI and
// airtel/mtnl block the HTTP Host for the shared stimulus).
func Families() []Family {
	var out []Family
	for _, m := range measure.CensorModels(CorpusSeed, "armsrace") {
		f := Family{CensorModel: m, Probe: probeFor(circumvent.ProbeTLS), Menu: scanMenu()}
		switch m.Name {
		case "tspu":
			f.Menu = tspuMenu()
		case "in-airtel", "in-mtnl":
			f.Probe = probeFor(circumvent.ProbeHTTP)
		}
		out = append(out, f)
	}
	return out
}

// FamilyByName returns the named lineage; the golden-trace replayer resolves
// trace headers through it.
func FamilyByName(name string) (Family, bool) {
	for _, f := range Families() {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// menuByName resolves posture names back to menu entries when replaying a
// trace. Unknown names mean a stale corpus file.
func menuByName(fam Family, names []string) ([]Countermeasure, bool) {
	var out []Countermeasure
	for _, n := range names {
		found := false
		for _, cm := range fam.Menu {
			if cm.Name == n {
				out = append(out, cm)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
