package measure

import (
	"fmt"
	"sort"
	"strings"

	"tspusim/internal/dnsx"
	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/workload"
)

// DomainVerdict is one domain's outcome across mechanisms.
type DomainVerdict struct {
	Domain workload.Domain
	// TSPUBlocked: SNI-based blocking observed from the vantage.
	TSPUBlocked bool
	// ISPBlocked[name]: the ISP's resolver returned its blockpage.
	ISPBlocked map[string]bool
}

// SurveyResult is the §6 survey over one input list.
type SurveyResult struct {
	List     string
	Verdicts []DomainVerdict
}

// DomainSurvey tests every domain in list for TSPU SNI blocking (ClientHello
// from a vantage to the US measurement machine) and for ISP DNS blocking
// (query to each ISP's resolver, §6.2). TSPU verdicts are measured from one
// vantage; §5.1's uniformity (tested separately) makes that sufficient.
func DomainSurvey(lab *topo.Lab, listName string, list []workload.Domain) *SurveyResult {
	res := &SurveyResult{List: listName}
	serveHello(lab.US1)
	p := VantagePath(lab, topo.ERTelecom)

	// DNS clients per ISP.
	clients := map[string]*dnsx.Client{}
	for name, vp := range lab.Vantages {
		clients[name] = dnsx.NewClient(vp.Stack, vp.ResolverAddr)
	}

	for _, d := range list {
		verdict := DomainVerdict{Domain: d, ISPBlocked: make(map[string]bool)}

		verdict.TSPUBlocked = chReset(p, d.Name)

		for name, vp := range lab.Vantages {
			var blocked bool
			clients[name].Lookup(d.Name, func(m *dnsx.Message) {
				blocked = len(m.Answers) > 0 && m.Answers[0].Addr == vp.Blockpage
			})
			lab.Sim.Run()
			verdict.ISPBlocked[name] = blocked
		}
		res.Verdicts = append(res.Verdicts, verdict)
	}
	return res
}

// Counts summarizes blocked-set sizes (the Fig. 6 set diagram).
func (r *SurveyResult) Counts() (tspu int, perISP map[string]int, tspuOnly int) {
	perISP = make(map[string]int)
	for _, v := range r.Verdicts {
		anyISP := false
		for name, b := range v.ISPBlocked {
			if b {
				perISP[name]++
				anyISP = true
			}
		}
		if v.TSPUBlocked {
			tspu++
			if !anyISP {
				tspuOnly++
			}
		}
	}
	return
}

// Render lays out the Fig. 6 comparison.
func (r *SurveyResult) Render() *report.Doc {
	tspu, perISP, tspuOnly := r.Counts()
	t := report.NewTable(fmt.Sprintf("Fig. 6: domains blocked (%s, %d tested)", r.List, len(r.Verdicts)),
		"Mechanism", "Blocked")
	t.AddRow("TSPU (uniform across ISPs)", tspu)
	for _, name := range []string{topo.Rostelecom, topo.ERTelecom, topo.OBIT} {
		t.AddRow("resolver "+name, perISP[name])
	}
	t.AddRow("TSPU only (out-registry or ISP lag)", tspuOnly)
	return new(report.Doc).Add(t)
}

// CategoryBreakdown runs the Fig. 7 pipeline: LDA-categorize the list and
// count all-vs-TSPU-blocked per category.
type CategoryBreakdown struct {
	All, Blocked map[workload.Category]int
}

// Categories computes Fig. 7 from a survey result. It re-labels domains with
// the LDA pipeline (topics, iters control fit effort) rather than trusting
// generator ground truth, exactly as the paper had to.
func Categories(lab *topo.Lab, r *SurveyResult, topics, iters int) *CategoryBreakdown {
	ds := make([]workload.Domain, len(r.Verdicts))
	for i, v := range r.Verdicts {
		ds[i] = v.Domain
	}
	labels := workload.CategorizeDomains(lab.Rand.Fork("fig7"), ds, topics, iters)
	cb := &CategoryBreakdown{
		All:     make(map[workload.Category]int),
		Blocked: make(map[workload.Category]int),
	}
	for i, v := range r.Verdicts {
		cb.All[labels[i]]++
		if v.TSPUBlocked {
			cb.Blocked[labels[i]]++
		}
	}
	return cb
}

// Render lays out Fig. 7.
func (cb *CategoryBreakdown) Render() *report.Doc {
	t := report.NewTable("Fig. 7: domain categories (LDA-labelled)", "Category", "All Sites", "Blocked by TSPU")
	cats := append(workload.Categories(), workload.CatErrorPage)
	for _, c := range cats {
		if cb.All[c] == 0 && cb.Blocked[c] == 0 {
			continue
		}
		t.AddRow(c.String(), cb.All[c], cb.Blocked[c])
	}
	return new(report.Doc).Add(t)
}

// Table3Result maps the paper's named domains to their observed behaviors.
type Table3Result struct {
	Rows []Table3Row
}

// Table3Row is one domain's behavior classification.
type Table3Row struct {
	Domain                string
	SNI1, SNI2, SNI4      bool
	ExpectedSNI1          bool
	ExpectedSNI2          bool
	ExpectedSNI4          bool
	MatchesPaperBehaviors bool
}

// Table3 probes each well-known domain for all SNI behavior types.
func Table3(lab *topo.Lab) *Table3Result {
	serveHello(lab.US1)
	us2 := lab.US2.Listen(443, hostnet.ListenOptions{SplitHandshake: true})
	p := VantagePath(lab, topo.ERTelecom)
	toUS2 := p
	toUS2.Remote = lab.US2
	res := &Table3Result{}
	for _, wk := range workload.WellKnownDomains() {
		row := Table3Row{Domain: wk.Name, ExpectedSNI1: wk.SNI1, ExpectedSNI2: wk.SNI2, ExpectedSNI4: wk.SNI4}

		// SNI-I: RST on a normal connection. Retry for failure-injection.
		row.SNI1 = retried(func() bool { return chReset(p, wk.Name) })
		// SNI-II: markers dropped after the trigger on a raw flow.
		row.SNI2 = retried(func() bool { return sni2Blocked(p, wk.Name) })
		// SNI-IV: split handshake, CH swallowed.
		row.SNI4 = retried(func() bool { return chSwallowed(toUS2, us2, wk.Name) })

		row.MatchesPaperBehaviors = row.SNI1 == wk.SNI1 && row.SNI2 == wk.SNI2 && row.SNI4 == wk.SNI4
		res.Rows = append(res.Rows, row)
	}
	return res
}

// sni2Blocked runs one SNI-II check over p: handshake, a ClientHello for
// domain, then the markers. Unblocked only if every marker arrived.
func sni2Blocked(p Path, domain string) bool {
	f := NewFlow(p, 443)
	defer f.Close()
	f.Handshake()
	f.L(packet.FlagsPSHACK, CH(domain))
	return f.markersDropped()
}

// Render lays out Table 3.
func (r *Table3Result) Render() *report.Doc {
	t := report.NewTable("Table 3: blocking types for named domains (measured vs paper)",
		"Domain", "SNI-I", "SNI-II", "SNI-IV", "Matches paper")
	for _, row := range r.Rows {
		t.AddRow(row.Domain, report.Mark(row.SNI1), report.Mark(row.SNI2), report.Mark(row.SNI4), row.MatchesPaperBehaviors)
	}
	return new(report.Doc).Add(t)
}

// Venn computes the Fig. 6 set diagram exactly: for every domain, which of
// the four blockers {TSPU, rostelecom, ertelecom, obit} caught it, counted
// per region of the 4-set Venn. Keys are "+"-joined sorted member names;
// unblocked domains land in "(none)".
func (r *SurveyResult) Venn() map[string]int {
	out := map[string]int{}
	for _, v := range r.Verdicts {
		var members []string
		if v.TSPUBlocked {
			members = append(members, "tspu")
		}
		for _, isp := range []string{topo.ERTelecom, topo.OBIT, topo.Rostelecom} {
			if v.ISPBlocked[isp] {
				members = append(members, isp)
			}
		}
		key := "(none)"
		if len(members) > 0 {
			sort.Strings(members)
			key = strings.Join(members, "+")
		}
		out[key]++
	}
	return out
}

// RenderVenn lays out the region counts, largest first.
func (r *SurveyResult) RenderVenn() *report.Doc {
	venn := r.Venn()
	keys := make([]string, 0, len(venn))
	for k := range venn {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if venn[keys[i]] != venn[keys[j]] {
			return venn[keys[i]] > venn[keys[j]]
		}
		return keys[i] < keys[j]
	})
	t := report.NewTable(fmt.Sprintf("Fig. 6 Venn regions (%s)", r.List), "Region", "Domains")
	for _, k := range keys {
		t.AddRow(k, venn[k])
	}
	return new(report.Doc).Add(t)
}
