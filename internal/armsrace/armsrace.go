package armsrace

import (
	"fmt"
	"strings"

	"tspusim/internal/circumvent"
	"tspusim/internal/evolve"
	"tspusim/internal/measure"
	"tspusim/internal/report"
	"tspusim/internal/sim"
)

// Config sizes the race. The defaults are the corpus configuration — the
// golden ledger and every trace under testdata/evasions/ are generated from
// DefaultConfig, so changing a default is changing the corpus.
type Config struct {
	// Rounds per family: search, counter-evolve, repeat.
	Rounds int
	// Population and Generations size each round's genetic search.
	Population  int
	Generations int
	// PinsPerRound caps how many new strategies a round may freeze.
	PinsPerRound int
	// Workers fans trial batches across the fleet pool; the outcome is
	// byte-identical at any value.
	Workers int
	// Families defaults to Families().
	Families []Family
}

// DefaultConfig returns the corpus configuration.
func DefaultConfig() Config {
	return Config{Rounds: 3, Population: 10, Generations: 4, PinsPerRound: 3, Workers: 1}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Rounds == 0 {
		c.Rounds = d.Rounds
	}
	if c.Population == 0 {
		c.Population = d.Population
	}
	if c.Generations == 0 {
		c.Generations = d.Generations
	}
	if c.PinsPerRound == 0 {
		c.PinsPerRound = d.PinsPerRound
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.Families == nil {
		c.Families = Families()
	}
	return c
}

// Pin is one frozen discovery: a shrunk, one-minimal genome that evaded its
// family under the posture of its round.
type Pin struct {
	Family string
	// Round the strategy was discovered in.
	Round int
	// Posture is the countermeasure set it evaded.
	Posture []string
	Genome  circumvent.Genome
	Verdict circumvent.Verdict
	// DefeatedRound is the round a later posture killed it, 0 if it survived
	// the whole race.
	DefeatedRound int
}

// Defeat records a pinned evasion dying to a counter-evolved posture — the
// arms-race outcome the ledger exists to witness.
type Defeat struct {
	Family         string
	Genome         circumvent.Genome
	PinnedRound    int
	Round          int
	Countermeasure string
}

// RoundLog is one round's ledger entry.
type RoundLog struct {
	Round int
	// Posture entering the round.
	Posture []string
	// Candidates distinctly evaluated by the search.
	Candidates int
	// NewPins frozen this round (canonical genome strings).
	NewPins []string
	// Defeated prior pins (canonical genome strings).
	Defeated []string
	// Applied is the countermeasure chosen at round end ("" if none).
	Applied string
	Note    string
}

// FamilyLog is one lineage's full race.
type FamilyLog struct {
	Family string
	Probe  circumvent.Probe
	// Baseline is the noop verdict under the unmodified censor.
	Baseline circumvent.Verdict
	// NotApplicable: the family never blocked the probed target, so there is
	// nothing to evade (the portability matrix's control column).
	NotApplicable bool
	Rounds        []RoundLog
	Pins          []Pin
	Defeats       []Defeat
}

// Ledger is the race's complete deterministic record.
type Ledger struct {
	Config   Config
	Families []FamilyLog
}

// Run executes the full arms race: for every family, alternate a genetic
// evasion search with one counter-evolution step from the family's menu,
// replaying all prior pins under each new posture. Everything downstream of
// CorpusSeed is deterministic; Workers only changes wall time.
func Run(cfg Config) *Ledger {
	cfg = cfg.withDefaults()
	led := &Ledger{Config: cfg}
	for _, fam := range cfg.Families {
		led.Families = append(led.Families, runFamily(cfg, fam))
	}
	return led
}

func runFamily(cfg Config, fam Family) FamilyLog {
	fl := FamilyLog{Family: fam.Name, Probe: fam.Probe}

	// Control: if the unmodified censor never blocks the probed target,
	// "evasions" against it would be meaningless and the family sits out.
	fl.Baseline = runTrial(fam, fam.Probe, nil, circumvent.Genome{}, nil)
	if fl.Baseline.Evaded {
		fl.NotApplicable = true
		return fl
	}

	var applied []Countermeasure
	pinnedSigs := make(map[uint8]bool)
	menuUsed := make(map[string]bool)
	for round := 1; round <= cfg.Rounds; round++ {
		rl := RoundLog{Round: round, Posture: postureNames(applied)}
		label := fmt.Sprintf("armsrace/%s/r%d", fam.Name, round)
		ec := newEvalCtx(fam, applied, cfg.Workers, label)

		// Replay every still-standing pin under the current posture; the ones
		// that stopped evading are this round's defeats, attributed to the
		// countermeasure applied at the end of the previous round.
		var survivors []circumvent.Genome
		for i := range fl.Pins {
			p := &fl.Pins[i]
			if p.DefeatedRound != 0 {
				continue
			}
			if ec.verdict(p.Genome).Evaded {
				survivors = append(survivors, p.Genome)
				continue
			}
			p.DefeatedRound = round
			fl.Defeats = append(fl.Defeats, Defeat{
				Family:         fam.Name,
				Genome:         p.Genome,
				PinnedRound:    p.Round,
				Round:          round,
				Countermeasure: applied[len(applied)-1].Name,
			})
			rl.Defeated = append(rl.Defeated, p.Genome.String())
		}

		// Search under the current posture. The search rand derives from the
		// corpus seed and the round label, never from results, so the drawn
		// genomes are a pure function of (family, round).
		r := sim.NewRand(sim.StreamSeed(CorpusSeed, label+"/search"))
		found := evolve.SearchBatch(r, evolve.SearchOptions{
			Population:  cfg.Population,
			Generations: cfg.Generations,
		}, ec.batch)
		rl.Candidates = len(found)

		// Shrink winners to one-minimal form and freeze new mechanisms. Pins
		// dedup by gene signature: segment(64) after segment(112) is the same
		// discovery with a different parameter.
		for _, d := range found {
			if d.Fitness < 1 {
				break // sorted by fitness descending
			}
			g := evolve.Shrink(d.Genome, func(c circumvent.Genome) bool { return ec.verdict(c).Evaded })
			if pinnedSigs[g.Signature()] || len(rl.NewPins) >= cfg.PinsPerRound {
				continue
			}
			pinnedSigs[g.Signature()] = true
			fl.Pins = append(fl.Pins, Pin{
				Family:  fam.Name,
				Round:   round,
				Posture: rl.Posture,
				Genome:  g,
				Verdict: ec.verdict(g),
			})
			survivors = append(survivors, g)
			rl.NewPins = append(rl.NewPins, g.String())
		}

		if len(survivors) == 0 {
			rl.Note = "censor holds: no evasion survives this posture"
			fl.Rounds = append(fl.Rounds, rl)
			break
		}

		// Counter-evolve: the first unapplied menu entry that targets any
		// surviving mechanism. No move after the final round — the last
		// search's winners must stay reproducible as pinned.
		if round < cfg.Rounds {
			for _, cm := range fam.Menu {
				if menuUsed[cm.Name] {
					continue
				}
				for _, g := range survivors {
					if cm.Defeats(g) {
						menuUsed[cm.Name] = true
						applied = append(applied, cm)
						rl.Applied = cm.Name
						break
					}
				}
				if rl.Applied != "" {
					break
				}
			}
			if rl.Applied == "" {
				rl.Note = "menu exhausted: no countermeasure targets the survivors"
				fl.Rounds = append(fl.Rounds, rl)
				break
			}
		}
		fl.Rounds = append(fl.Rounds, rl)
	}
	return fl
}

func postureNames(applied []Countermeasure) []string {
	var out []string
	for _, cm := range applied {
		out = append(out, cm.Name)
	}
	return out
}

// postureLabel renders a posture for ledgers and trace headers.
func postureLabel(names []string) string {
	if len(names) == 0 {
		return "baseline"
	}
	return strings.Join(names, ",")
}

// SurvivingPins returns every pin never defeated, in discovery order.
func (l *Ledger) SurvivingPins() []Pin {
	var out []Pin
	for _, fl := range l.Families {
		for _, p := range fl.Pins {
			if p.DefeatedRound == 0 {
				out = append(out, p)
			}
		}
	}
	return out
}

// AllPins returns every pin, defeated or not, in discovery order.
func (l *Ledger) AllPins() []Pin {
	var out []Pin
	for _, fl := range l.Families {
		out = append(out, fl.Pins...)
	}
	return out
}

// Render prints the race ledger: one round table per family, then the pin
// and defeat registers.
func (l *Ledger) Render() *report.Doc {
	doc := new(report.Doc).
		Text("== Arms race: evasion search vs. counter-evolving censors ==\n").
		Textf("stimulus: %s; search %d rounds x pop %d x gen %d per family; corpus seed %#x\n\n",
			measure.CrossBlockedDomain, l.Config.Rounds, l.Config.Population, l.Config.Generations, CorpusSeed)

	rounds := report.NewTable("Rounds (posture entering the round; pins frozen post-shrink)",
		"Censor", "Round", "Posture", "Cands", "New pins", "Defeated", "Counter-move")
	rounds.LabelCols = 2
	for _, fl := range l.Families {
		if fl.NotApplicable {
			rounds.AddRow(fl.Family, "-", "-", "-",
				fmt.Sprintf("n/a: %s target not blocked", fl.Probe.Kind), "-", "-")
			continue
		}
		for _, rl := range fl.Rounds {
			move := rl.Applied
			if move == "" {
				move = rl.Note
			}
			rounds.AddRow(fl.Family, rl.Round, postureLabel(rl.Posture), rl.Candidates,
				orDash(strings.Join(rl.NewPins, " ")),
				orDash(strings.Join(rl.Defeated, " ")), move)
		}
	}
	pins := report.NewTable("Pinned evasions (one-minimal; frozen as golden traces under testdata/evasions/)",
		"Censor", "Strategy", "Found r", "Posture", "Fate")
	pins.LabelCols = 2
	for _, p := range l.AllPins() {
		fate := "survives the race"
		if p.DefeatedRound != 0 {
			fate = fmt.Sprintf("defeated in round %d", p.DefeatedRound)
		}
		pins.AddRow(p.Family, p.Genome.String(), p.Round, postureLabel(p.Posture), fate)
	}
	var defeats int
	for _, fl := range l.Families {
		defeats += len(fl.Defeats)
	}
	return doc.Add(rounds, pins).
		Textf("pins: %d, ", len(l.AllPins())).
		Textf("defeats: %d, ", defeats).
		Textf("surviving: %d\n", len(l.SurvivingPins()))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
