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
	"tspusim/internal/censor"
	"tspusim/internal/censor/in"
	"tspusim/internal/censor/tm"
	"tspusim/internal/circumvent"
	"tspusim/internal/ispdpi"
	"tspusim/internal/netem"
	"tspusim/internal/sim"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// BlockedDomain is the stimulus installed in every family's trigger tables —
// the same honest common denominator the cross-censor battery uses
// (measure.CrossBlockedDomain; the root-package tests pin the equality).
const BlockedDomain = "rferl.org"

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
	p := circumvent.Probe{Kind: kind, Port: 443, Domain: BlockedDomain, FollowUps: followUpCount}
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

// Family is one censor lineage in the race: a base model, the probe that its
// tables block, and the bounded menu it may counter-evolve from.
type Family struct {
	Name string
	// Cite is the paper establishing the base model.
	Cite  string
	Probe circumvent.Probe
	// Build constructs a fresh censor on the testbed's simulator with the
	// applied countermeasures' config changes (watchers attach separately).
	Build func(s *sim.Sim, applied []Countermeasure) censor.Censor
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
			Watcher: func() netem.Middlebox { return newByteScan(BlockedDomain, topo.CensorTestbedLocalDir) },
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
			Watcher: func() netem.Middlebox { return newStreamScan(BlockedDomain, topo.CensorTestbedLocalDir) },
		},
	}
}

// Families returns the race's lineages in corpus order: the same six models
// as the cross-censor battery, each probed on the plane its tables block
// (the pinned fingerprint matrix shows tspu/tm/jio/keyword block the TLS SNI
// and airtel/mtnl block the HTTP Host for the shared stimulus).
func Families() []Family {
	return []Family{
		{
			Name:  "tspu",
			Cite:  "TSPU (IMC '22)",
			Probe: probeFor(circumvent.ProbeTLS),
			Build: func(s *sim.Sim, applied []Countermeasure) censor.Censor {
				cfg := tspu.Config{
					Name:     "tspu",
					Sim:      s,
					Rand:     sim.NewRand(sim.StreamSeed(CorpusSeed, "armsrace/tspu")),
					LocalDir: topo.CensorTestbedLocalDir,
				}
				for _, cm := range applied {
					if cm.Reconfig != nil {
						cm.Reconfig(&cfg)
					}
				}
				d := tspu.NewDevice(cfg)
				ctl := tspu.NewController(nil)
				ctl.Register(d)
				ctl.Update(func(p *tspu.Policy) {
					p.SNI1Domains.Add(BlockedDomain)
					p.QUICFilter = true
				})
				return d
			},
			Menu: tspuMenu(),
		},
		{
			Name:  "ispdpi-keyword",
			Cite:  "pre-2019 RU ISP DPI (§2 [81])",
			Probe: probeFor(circumvent.ProbeTLS),
			Build: func(s *sim.Sim, applied []Countermeasure) censor.Censor {
				return &ispdpi.KeywordDPI{ISP: "armsrace", Keywords: []string{BlockedDomain}}
			},
			Menu: scanMenu(),
		},
		{
			Name:  "tm",
			Cite:  "arXiv:2304.04835",
			Probe: probeFor(circumvent.ProbeTLS),
			Build: func(s *sim.Sim, applied []Countermeasure) censor.Censor {
				c := tm.New(tm.Config{})
				c.Rules().AddAll(BlockedDomain)
				return c
			},
			Menu: scanMenu(),
		},
		{
			Name:  "in-airtel",
			Cite:  "arXiv:1808.01708",
			Probe: probeFor(circumvent.ProbeHTTP),
			Build: buildIN("airtel"),
			Menu:  scanMenu(),
		},
		{
			Name:  "in-jio",
			Cite:  "arXiv:1808.01708",
			Probe: probeFor(circumvent.ProbeTLS),
			Build: buildIN("jio"),
			Menu:  scanMenu(),
		},
		{
			Name:  "in-mtnl",
			Cite:  "arXiv:1808.01708",
			Probe: probeFor(circumvent.ProbeHTTP),
			Build: buildIN("mtnl"),
			Menu:  scanMenu(),
		},
	}
}

func buildIN(isp string) func(s *sim.Sim, applied []Countermeasure) censor.Censor {
	return func(s *sim.Sim, applied []Countermeasure) censor.Censor {
		p := in.ProfileFor(isp)
		p.Blocklist.Add(BlockedDomain)
		return in.New(in.Config{Profile: p, LocalDir: topo.CensorTestbedLocalDir})
	}
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
