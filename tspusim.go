// Package tspusim is a laboratory reproduction of "TSPU: Russia's
// Decentralized Censorship System" (Xue et al., IMC 2022). It bundles:
//
//   - a reference model of the TSPU middlebox exactly as the paper measured
//     it — SNI/QUIC/IP triggers, six blocking behaviors, the measured
//     connection-tracking timeouts, and the fragment-queue fingerprint;
//   - a deterministic network simulator populated with the paper's
//     measurement environment (three vantage ISPs, US/Paris machines, a
//     blocked Tor node, and a scaled RU endpoint population);
//   - the paper's measurement techniques, packaged as named experiments
//     that regenerate every table and figure of the evaluation.
//
// Quick start:
//
//	lab := tspusim.NewLab(tspusim.Options{Seed: 1})
//	out, err := tspusim.Run(lab, "fig4")
//
// Use Experiments to enumerate everything that can be regenerated; each
// experiment is independent and deterministic given the lab seed.
package tspusim

import (
	"fmt"
	"sort"
	"time"

	"tspusim/internal/armsrace"
	"tspusim/internal/circumvent"
	"tspusim/internal/evolve"
	"tspusim/internal/ispdpi"
	"tspusim/internal/measure"
	"tspusim/internal/report"
	"tspusim/internal/topo"
)

// Options configures a lab; it is the topology builder's option set.
type Options = topo.Options

// Lab is a fully-built measurement environment.
type Lab = topo.Lab

// NewLab builds a deterministic lab from options (zero values give a
// laptop-scale environment, ~1/1000 of the paper's populations).
func NewLab(opts Options) *Lab { return topo.Build(opts) }

// Experiment regenerates one table or figure.
type Experiment struct {
	ID    string
	Title string
	// Paper cites where the artifact appears.
	Paper string
	// Run executes against a fresh or reused lab and returns the typed
	// artifact: its String is the rendered text, its Stats the numbers
	// multi-seed fleet runs aggregate.
	Run func(lab *Lab) *report.Doc
}

// Experiments returns the full per-experiment index of DESIGN.md, keyed and
// ordered by ID.
//
//tspuvet:impure the armsrace experiment's inner fleet reads wall time for worker metrics; every rendered artifact is seed-pure
func Experiments() []Experiment {
	exps := []Experiment{
		{
			ID: "table1", Title: "TSPU trigger failure rates", Paper: "Table 1",
			Run: func(lab *Lab) *report.Doc { return new(report.Doc).Add(measure.Reliability(lab, 2000).Table()) },
		},
		{
			ID: "table2", Title: "Connection-state timeout measurements", Paper: "Table 2, Fig. 5",
			Run: func(lab *Lab) *report.Doc { return measure.RenderTable2(measure.Table2(lab)) },
		},
		{
			ID: "table3", Title: "Blocking types for named domains", Paper: "Table 3",
			Run: func(lab *Lab) *report.Doc { return measure.Table3(lab).Render() },
		},
		{
			ID: "table4", Title: "Echo server measurements", Paper: "Table 4, Fig. 8 right",
			Run: func(lab *Lab) *report.Doc { return measure.EchoMeasure(lab, 20).Render() },
		},
		{
			ID: "table5", Title: "IP-block correlations (echo and fragmentation)", Paper: "Table 5",
			Run: func(lab *Lab) *report.Doc {
				echo := measure.EchoMeasure(lab, 20)
				scan := measure.FragScan(lab, true, false)
				return new(report.Doc).
					Section("echo", echo.Table5Echo()).Text("\n").
					Section("frag", scan.Table5Frag())
			},
		},
		{
			ID: "table7", Title: "Documented conntrack timeouts", Paper: "Table 7",
			Run: func(lab *Lab) *report.Doc {
				t := report.NewTable("Table 7: documented connection-tracking timeouts", "System", "State", "Timeout")
				for _, row := range ispdpi.Table7() {
					t.AddRow(row.System, row.State, row.Timeout.String())
				}
				return new(report.Doc).Add(t)
			},
		},
		{
			ID: "table8", Title: "Sequence timeout estimates", Paper: "Table 8",
			Run: func(lab *Lab) *report.Doc { return measure.RenderTable8(measure.Table8(lab)) },
		},
		{
			ID: "fig2", Title: "Blocking behavior packet traces", Paper: "Fig. 2",
			Run: measure.BehaviorTraces,
		},
		{
			ID: "fig3", Title: "Fragment buffering and TTL rewrite", Paper: "Fig. 3",
			Run: measure.FragBehaviorTrace,
		},
		{
			ID: "fig4", Title: "Triggering-sequence exploration", Paper: "Fig. 4",
			Run: func(lab *Lab) *report.Doc { return measure.ExploreSequences(lab, topo.ERTelecom, 3).Render() },
		},
		{
			ID: "fig6", Title: "ISP vs TSPU blocked-domain sets", Paper: "Fig. 6",
			Run: func(lab *Lab) *report.Doc {
				reg := measure.DomainSurvey(lab, "registry-sample", lab.Registry)
				tr := measure.DomainSurvey(lab, "tranco+CLBL", lab.Tranco)
				return new(report.Doc).
					Section(reg.List, new(report.Doc).Add(reg.Render(), reg.RenderVenn())).Text("\n").
					Section(tr.List, new(report.Doc).Add(tr.Render(), tr.RenderVenn()))
			},
		},
		{
			ID: "fig7", Title: "Blocked-domain categories (LDA)", Paper: "Fig. 7",
			Run: func(lab *Lab) *report.Doc {
				reg := measure.DomainSurvey(lab, "registry-sample", lab.Registry)
				return measure.Categories(lab, reg, 12, 40).Render()
			},
		},
		{
			ID: "fig8", Title: "Partial-visibility (upstream-only) devices", Paper: "Fig. 8 left",
			Run: func(lab *Lab) *report.Doc {
				doc := new(report.Doc)
				for _, v := range measure.Vantages {
					doc.Section(v, measure.PartialVisibility(lab, v, 12).Render())
				}
				return doc
			},
		},
		{
			ID: "fig9", Title: "Fragment-fingerprint scan by port", Paper: "Fig. 9",
			Run: func(lab *Lab) *report.Doc {
				scan := measure.FragScan(lab, false, false)
				// "Large" scales the paper's 5,000-of-4M threshold: ~2x the
				// mean AS size (the weight distribution tops out near 2.4x).
				threshold := 2 * len(lab.Endpoints) / len(lab.ASes)
				return new(report.Doc).Add(scan.Render(lab.PaperScale()), scan.LargeAS(threshold).Render())
			},
		},
		{
			ID: "fig10", Title: "Traceroutes with TSPU links", Paper: "Fig. 10, Fig. 11",
			Run: func(lab *Lab) *report.Doc {
				scan := measure.FragScan(lab, false, true)
				return measure.RunTracerouteStudy(lab, scan).Render(lab.PaperScale())
			},
		},
		{
			ID: "fig12", Title: "TSPU hop-distance histogram", Paper: "Fig. 12",
			Run: func(lab *Lab) *report.Doc {
				scan := measure.FragScan(lab, false, true)
				return new(report.Doc).
					Section("hops", scan.HopHist).
					Textf("within two hops: %.1f%% (paper: ~69%%)\n", 100*scan.HopHist.FracAtOrBelow(2))
			},
		},
		{
			ID: "fig13", Title: "ClientHello inspection map", Paper: "Fig. 13",
			Run: func(lab *Lab) *report.Doc { return measure.RenderCHFuzz(measure.CHFuzz(lab)) },
		},
		{
			ID: "fig14", Title: "QUIC fingerprint boundaries", Paper: "Fig. 14",
			Run: func(lab *Lab) *report.Doc { return measure.QUICFuzz(lab).Render() },
		},
		{
			ID: "sni3", Title: "SNI-III throttling goodput", Paper: "§5.2",
			Run: func(lab *Lab) *report.Doc { return measure.ThrottleMeasure(lab).Render() },
		},
		{
			ID: "localize", Title: "TTL-limited device localization", Paper: "§7.1",
			Run: func(lab *Lab) *report.Doc {
				doc := new(report.Doc)
				for _, v := range measure.Vantages {
					doc.Section(v, measure.TTLLocalize(lab, v, 10).Render())
				}
				return doc
			},
		},
		{
			ID: "usval", Title: "US fragment-limit false positives", Paper: "§7.2",
			Run: func(lab *Lab) *report.Doc {
				eps := lab.BuildUSPopulation(1000)
				res := measure.ValidateUS(lab, eps)
				return new(report.Doc).Textf("US hosts with TSPU-like fragment limit: %d/%d (%.3f%%; paper: 0.708%%)\n",
					res.TSPULike, res.Total, 100*float64(res.TSPULike)/float64(res.Total))
			},
		},
		{
			ID: "observatory", Title: "OONI vs Censored Planet visibility", Paper: "§5.3.2",
			Run: func(lab *Lab) *report.Doc { return measure.ObservatoryComparison(lab, 15).Render() },
		},
		{
			ID: "timeline", Title: "Policy timeline replay 2021-2022", Paper: "§2, §5.2",
			Run: func(lab *Lab) *report.Doc { return measure.RenderTimeline(measure.TimelineReplay(lab)) },
		},
		{
			ID: "exhaust", Title: "Conntrack state-exhaustion evasion", Paper: "§8 (provisioning)",
			Run: func(lab *Lab) *report.Doc { return measure.StateExhaustion(lab).Render() },
		},
		{
			ID: "exhaustscale", Title: "State exhaustion at scale (batch-engine flood)", Paper: "§5.3.3, §8 (provisioning)",
			Run: func(lab *Lab) *report.Doc {
				// Offered load scales with the lab's population knob: the
				// tspu-lab default (2000 endpoints) floods at 20k flows/s for
				// a ~1.2M-flow concurrency plateau; -endpoints scales it up
				// to the paper's millions. Bounds bracket the plateau so the
				// table shows both survival and shedding.
				cfg := measure.DefaultExhaustScale()
				cfg.Seed = lab.Opts.Seed
				cfg.Rate = 10 * len(lab.Endpoints)
				if cfg.Rate < 500 {
					cfg.Rate = 500
				}
				plateau := cfg.Rate * 60
				cfg.Bounds = []int{0, 2 * plateau, plateau / 8, plateau / 128}
				return measure.StateExhaustionAtScale(cfg).Render()
			},
		},
		{
			ID: "devices", Title: "TSPU fleet counters under a mixed workload", Paper: "(observability)",
			Run: func(lab *Lab) *report.Doc { return measure.Devices(lab).Render() },
		},
		{
			ID: "asymmetry", Title: "Bidirectional routing asymmetry", Paper: "§7.1.1",
			Run: func(lab *Lab) *report.Doc { return measure.RoutingAsymmetry(lab).Render() },
		},
		{
			ID: "propagation", Title: "Central policy push: nationwide onset uniformity", Paper: "§2, §5.1",
			Run: func(lab *Lab) *report.Doc { return measure.PolicyPropagation(lab, 8*time.Second).Render() },
		},
		{
			ID: "webconn", Title: "OONI-style web connectivity (DNS+TLS+HTTP layering)", Paper: "§6.2",
			Run: func(lab *Lab) *report.Doc {
				n := len(lab.Registry)
				if n > 150 {
					n = 150
				}
				doc := new(report.Doc)
				for _, v := range measure.Vantages {
					doc.Section(v, measure.WebConnectivity(lab, v, lab.Registry[:n]).Render()).Text("\n")
				}
				return doc
			},
		},
		{
			ID: "residual", Title: "Residual censorship / fresh-port methodology", Paper: "§3",
			Run: func(lab *Lab) *report.Doc { return measure.ResidualCensorship(lab).Render() },
		},
		{
			ID: "crosscensor", Title: "Cross-censor fingerprint matrix (TSPU vs TM vs IN vs ISP DPI)", Paper: "§3, §5-§7 vs arXiv:2304.04835, arXiv:1808.01708",
			Run: func(lab *Lab) *report.Doc {
				// Runs on its own per-cell testbeds; the Lab contributes only
				// the seed, so the matrix is identical at any -endpoints or
				// -workers setting.
				return measure.CrossCensor(lab.Opts.Seed).Render()
			},
		},
		{
			ID: "armsrace", Title: "Arms race: evasion search vs. counter-evolving censors", Paper: "§8 / [38] + arXiv:2304.04835, arXiv:1808.01708",
			Run: func(lab *Lab) *report.Doc {
				// Like crosscensor, the race is a conformance artifact: every
				// trial runs on its own testbed derived from the fixed corpus
				// seed, so the ledger is byte-identical for every lab seed,
				// replica, and worker count.
				led := armsrace.Run(armsrace.DefaultConfig())
				return new(report.Doc).Add(led.Render()).Text("\n").Add(armsrace.RunPortability(led).Render())
			},
		},
		{
			ID: "evolve", Title: "Geneva-style automated evasion search", Paper: "§8 / [38]",
			Run: func(lab *Lab) *report.Doc { return evolve.Render(evolve.Search(lab, lab.US1, evolve.SearchOptions{})) },
		},
		{
			ID: "circum", Title: "Circumvention strategy matrix", Paper: "§8",
			Run: func(lab *Lab) *report.Doc {
				sym := circumvent.Matrix(lab, topo.ERTelecom, lab.US1)
				upstream := circumvent.Matrix(lab, topo.OBIT, lab.Paris)
				return new(report.Doc).
					Add(circumvent.Render("Circumvention vs one symmetric device (ER-Telecom -> US)", sym)).Text("\n").
					Add(circumvent.Render("Circumvention through an upstream-only device (OBIT -> Paris)", upstream))
			},
		},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Header renders the experiment's deterministic banner line (no timing).
func (e Experiment) Header() string {
	return fmt.Sprintf("### %s — %s (%s)", e.ID, e.Title, e.Paper)
}

// Run executes the experiment with the given ID on lab. The returned string
// is a pure function of the lab seed — byte-identical across runs — so
// callers wanting wall-clock timing must measure around this call and keep
// it out of the experiment artifact (cmd/tspu-lab prints it to stderr).
func Run(lab *Lab, id string) (string, error) {
	e, ok := Find(id)
	if !ok {
		return "", fmt.Errorf("tspusim: unknown experiment %q (use IDs from Experiments)", id)
	}
	return e.Header() + "\n" + e.Run(lab).String(), nil
}

// IDs returns every experiment ID.
func IDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
}
