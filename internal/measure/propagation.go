package measure

import (
	"fmt"
	"sort"

	"time"

	"tspusim/internal/hostnet"
	"tspusim/internal/report"
	"tspusim/internal/topo"
	"tspusim/internal/tspu"
)

// PropagationResult measures the temporal uniformity that first revealed
// the TSPU (§2): when Roskomnadzor adds a domain, blocking begins at every
// vantage within the control plane's jitter window — seconds — while ISP
// resolver blocklists lag by days (Fig. 6's counts are the standing result
// of that lag).
type PropagationResult struct {
	Domain string
	Jitter time.Duration
	// Onset[vantage] is the virtual time after the push at which blocking
	// was first observed; -1 if never.
	Onset map[string]time.Duration
	// ISPResolverAdopted[vantage] reports whether the ISP's own resolver
	// ever blocked the domain in the observation window (it should not —
	// this is a fresh out-of-registry push).
	ISPResolverAdopted map[string]bool
}

// PolicyPropagation pushes a brand-new domain with jittered installs, then
// probes every vantage each virtual second until all block.
func PolicyPropagation(lab *topo.Lab, jitter time.Duration) *PropagationResult {
	const domain = "freshly-banned.example"
	res := &PropagationResult{
		Domain: domain, Jitter: jitter,
		Onset:              map[string]time.Duration{},
		ISPResolverAdopted: map[string]bool{},
	}
	serveHello(lab.US1)
	vantages := []string{topo.Rostelecom, topo.ERTelecom, topo.OBIT}
	for _, v := range vantages {
		res.Onset[v] = -1
	}

	lab.Sim.Run() // settle any pending lab activity before the push
	// Sanity: unblocked everywhere before the push.
	for _, v := range vantages {
		if probeBlocked(lab, v, domain) {
			return res // already blocked: caller misused the lab
		}
	}

	pushAt := lab.Sim.Now()
	lab.Controller.UpdateStaggered(lab.Sim, lab.Rand.Fork("push"), jitter, func(p *tspu.Policy) {
		p.SNI1Domains.Add(domain)
	})

	deadline := pushAt + jitter + 30*time.Second
	for lab.Sim.Now() < deadline {
		lab.Sim.RunUntil(lab.Sim.Now() + time.Second)
		done := true
		for _, v := range vantages {
			if res.Onset[v] >= 0 {
				continue
			}
			if probeBlocked(lab, v, domain) {
				res.Onset[v] = lab.Sim.Now() - pushAt
			} else {
				done = false
			}
		}
		if done {
			break
		}
	}
	for _, v := range vantages {
		res.ISPResolverAdopted[v] = lab.Vantages[v].ISPBlocklist().Contains(domain)
	}
	return res
}

// probeBlocked tests one vantage for SNI-I blocking of domain, with a retry
// to ride out trigger-miss noise. It advances the clock by bounded slices
// only — a full Run() would also execute the pending (future) policy
// installs and destroy the very timing this experiment measures.
func probeBlocked(lab *topo.Lab, vantage, domain string) bool {
	v := lab.Vantages[vantage]
	for attempt := 0; attempt < 2; attempt++ {
		conn := v.Stack.Dial(lab.US1.Addr(), 443, hostnet.DialOptions{})
		ch := CH(domain)
		conn.OnEstablished = func() { conn.Send(ch) }
		lab.Sim.RunUntil(lab.Sim.Now() + 200*time.Millisecond)
		blocked := conn.ResetSeen
		conn.Close()
		if blocked {
			return true
		}
	}
	return false
}

// Render prints the onset table.
func (r *PropagationResult) Render() *report.Doc {
	t := report.NewTable(
		fmt.Sprintf("Policy propagation: %q pushed with %v jitter", r.Domain, r.Jitter),
		"Vantage", "Blocking onset", "ISP resolver adopted")
	keys := make([]string, 0, len(r.Onset))
	for k := range r.Onset {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var onsets []time.Duration
	for _, k := range keys {
		var onset any = "never"
		if r.Onset[k] >= 0 {
			onset = report.Numf("%.0fs", r.Onset[k].Seconds())
			onsets = append(onsets, r.Onset[k])
		}
		t.AddRow(k, onset, r.ISPResolverAdopted[k])
	}
	doc := new(report.Doc).Add(t)
	if len(onsets) == len(keys) && len(onsets) > 0 {
		min, max := onsets[0], onsets[0]
		for _, o := range onsets {
			if o < min {
				min = o
			}
			if o > max {
				max = o
			}
		}
		doc.Textf("onset spread: %.0fs — the nationwide uniformity of §2; ISP blocklists lag by days (Fig. 6)\n", (max - min).Seconds())
	}
	return doc
}
