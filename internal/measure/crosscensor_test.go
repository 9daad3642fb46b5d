package measure

import (
	"strings"
	"testing"
)

// The matrix is the product the crosscensor experiment ships; these tests pin
// the properties the golden file alone cannot express: every censor pair must
// stay distinguishable, and the specific cells that distinguish them are
// behavioral claims with citations — a refactor that collapses two columns
// must fail loudly here, not just shift golden bytes.

func TestCrossCensorDeterministic(t *testing.T) {
	a := CrossCensor(1).Render().String()
	b := CrossCensor(1).Render().String()
	if a != b {
		t.Fatal("CrossCensor output differs between identical runs")
	}
	// The matrix is a pure function of the model tables; the seed only feeds
	// the TSPU's (unused, zero-failure-rate) rand stream.
	c := CrossCensor(99).Render().String()
	if a != c {
		t.Fatal("CrossCensor output depends on the seed; the battery must be behavior-only")
	}
}

func TestCrossCensorShape(t *testing.T) {
	mx := CrossCensor(1)
	if len(mx.Models) < 4 {
		t.Fatalf("matrix has %d censor models, want >= 4", len(mx.Models))
	}
	families := map[string]bool{}
	for _, p := range mx.Probes {
		families[p.Family] = true
	}
	if len(families) < 5 {
		t.Fatalf("matrix has %d probe families, want >= 5", len(families))
	}
	if len(mx.Cells) != len(mx.Probes) {
		t.Fatalf("matrix has %d rows for %d probes", len(mx.Cells), len(mx.Probes))
	}
	for i, row := range mx.Cells {
		if len(row) != len(mx.Models) {
			t.Fatalf("probe %s has %d cells for %d models", mx.Probes[i].ID(), len(row), len(mx.Models))
		}
		for j, cell := range row {
			if cell == "" {
				t.Errorf("empty cell at %s × %s", mx.Probes[i].ID(), mx.Models[j].Name)
			}
		}
	}
	for _, m := range mx.Models {
		if m.Cite == "" {
			t.Errorf("model %s has no citation", m.Name)
		}
	}
}

func TestCrossCensorAllFingerprintsDistinct(t *testing.T) {
	mx := CrossCensor(1)
	if got, want := mx.DistinctFingerprints(), len(mx.Models); got != want {
		byFP := map[string][]string{}
		for _, m := range mx.Models {
			fp := mx.Fingerprint(m.Name)
			byFP[fp] = append(byFP[fp], m.Name)
		}
		for _, names := range byFP {
			if len(names) > 1 {
				t.Errorf("censors %v share an identical fingerprint — the battery can no longer tell them apart", names)
			}
		}
		t.Fatalf("distinct fingerprints = %d, want %d", got, want)
	}
}

// pairDiffs pins, for every censor pair, at least three probe cells that must
// differ. Each list is the pair's discriminating surface: if any pinned cell
// pair becomes equal, two models drifted toward each other.
var pairDiffs = []struct {
	a, b   string
	probes []string
}{
	{"tspu", "ispdpi-keyword", []string{"state/remote-first-flow", "state/conntrack-occupancy", "frag/syn-queue-limit", "residual/reused-port", "tls/blocked-sni", "quic/blocked-initial"}},
	{"tspu", "tm", []string{"localize/http-ttl-ladder", "state/remote-first-flow", "dns/blocked-query", "dns/reverse-query", "residual/reused-port", "tls/blocked-sni"}},
	{"tspu", "in-airtel", []string{"localize/tls-ttl-ladder", "localize/http-ttl-ladder", "http/blocked-host", "residual/reused-port", "quic/blocked-initial"}},
	{"tspu", "in-jio", []string{"localize/http-ttl-ladder", "state/remote-first-flow", "http/blocked-host", "tls/blocked-sni", "residual/reused-port"}},
	{"tspu", "in-mtnl", []string{"localize/tls-ttl-ladder", "dns/blocked-query", "http/blocked-host", "residual/reused-port", "quic/blocked-initial"}},
	{"ispdpi-keyword", "tm", []string{"localize/tls-ttl-ladder", "state/server-side-clienthello", "dns/blocked-query", "dns/reverse-query", "tls/blocked-sni"}},
	{"ispdpi-keyword", "in-airtel", []string{"localize/tls-ttl-ladder", "state/remote-first-flow", "http/blocked-host", "tls/blocked-sni", "list/divergent-hosts"}},
	{"ispdpi-keyword", "in-jio", []string{"localize/tls-ttl-ladder", "state/server-side-clienthello", "http/blocked-host", "tls/blocked-sni", "list/divergent-hosts"}},
	{"ispdpi-keyword", "in-mtnl", []string{"localize/tls-ttl-ladder", "dns/blocked-query", "http/blocked-host", "list/divergent-hosts"}},
	{"tm", "in-airtel", []string{"state/remote-first-flow", "state/server-side-clienthello", "dns/reverse-query", "tls/blocked-sni", "http/blocked-host"}},
	{"tm", "in-jio", []string{"state/server-side-clienthello", "dns/blocked-query", "dns/reverse-query", "list/divergent-hosts"}},
	{"tm", "in-mtnl", []string{"state/server-side-clienthello", "dns/blocked-query", "dns/reverse-query", "http/blocked-host"}},
	{"in-airtel", "in-jio", []string{"localize/tls-ttl-ladder", "state/remote-first-flow", "http/blocked-host", "tls/blocked-sni", "list/divergent-hosts"}},
	{"in-airtel", "in-mtnl", []string{"dns/blocked-query", "http/blocked-host", "list/divergent-hosts"}},
	{"in-jio", "in-mtnl", []string{"localize/tls-ttl-ladder", "dns/blocked-query", "http/blocked-host", "tls/blocked-sni", "list/divergent-hosts"}},
}

func TestCrossCensorPairDifferences(t *testing.T) {
	mx := CrossCensor(1)
	seen := map[string]bool{}
	for _, pd := range pairDiffs {
		seen[pd.a+"|"+pd.b] = true
		if len(pd.probes) < 3 {
			t.Errorf("pair %s/%s pins only %d differing cells, want >= 3", pd.a, pd.b, len(pd.probes))
		}
		for _, probe := range pd.probes {
			ca, cb := mx.Cell(probe, pd.a), mx.Cell(probe, pd.b)
			if ca == cb {
				t.Errorf("pair %s/%s: probe %s no longer discriminates (both %q)", pd.a, pd.b, probe, ca)
			}
		}
	}
	// Every pair of models must be covered.
	for i, a := range mx.Models {
		for _, b := range mx.Models[i+1:] {
			if !seen[a.Name+"|"+b.Name] && !seen[b.Name+"|"+a.Name] {
				t.Errorf("censor pair %s/%s has no pinned differential cells", a.Name, b.Name)
			}
		}
	}
}

// TestCrossCensorPinnedCells locks the single most characteristic cell per
// model — the one the source paper leads with.
func TestCrossCensorPinnedCells(t *testing.T) {
	mx := CrossCensor(1)
	for _, tc := range []struct {
		probe, model, want string
	}{
		// TSPU §3: residual per-flow blocking is the methodology anchor.
		{"residual/reused-port", "tspu", "blocked (per-flow state persists)"},
		{"residual/after-expiry", "tspu", "blocked, then clean after 80s (hold expired)"},
		// TSPU §7.2: the 45-fragment queue fingerprint.
		{"frag/syn-queue-limit", "tspu", "45 answered, 46 dropped (45-fragment queue limit)"},
		// TM §3.1: measurable from outside because inspection is bidirectional.
		{"dns/reverse-query", "tm", "forged answer injected (bidirectional inspection)"},
		// TM §4.1: forged answers race the resolver, they don't replace it.
		{"dns/blocked-query", "tm", "forged answer injected (races the legit reply)"},
		// IN §6.3: the blockpage carries the ISP's attribution mark.
		{"http/blocked-host", "in-airtel", "blockpage injected [censor-id: airtel]"},
		{"http/blocked-host", "in-mtnl", "blockpage injected [censor-id: mtnl]"},
		// IN §6.2: Jio was the SNI-triggered RST-only ISP.
		{"http/blocked-host", "in-jio", "rst injected, no page"},
		// IN §4.3: each ISP enforces its own list snapshot.
		{"list/divergent-hosts", "in-airtel", "blocked: vimeo.com"},
		{"list/divergent-hosts", "in-jio", "blocked: telegram.org"},
		{"list/divergent-hosts", "in-mtnl", "blocked: archive.org"},
		// Pre-TSPU ISP DPI rewrites in flight rather than responding.
		{"tls/blocked-sni", "ispdpi-keyword", "trigger rewritten to rst in flight"},
		// TSPU §5.2 role confusion: remotely-originated flows are exempt.
		{"state/remote-first-flow", "tspu", "no interference"},
	} {
		if got := mx.Cell(tc.probe, tc.model); got != tc.want {
			t.Errorf("cell %s × %s = %q, want %q", tc.probe, tc.model, got, tc.want)
		}
	}
}

// TestCrossCensorControlColumn: nobody may interfere with the control host —
// overblocking in any model would silently poison every differential cell.
func TestCrossCensorControlColumn(t *testing.T) {
	mx := CrossCensor(1)
	for _, m := range mx.Models {
		if got := mx.Cell("http/control-host", m.Name); got != "origin page served" {
			t.Errorf("model %s interferes with the control host: %q", m.Name, got)
		}
	}
}

func TestCrossCensorRenderSummary(t *testing.T) {
	out := CrossCensor(1).Render().String()
	for _, want := range []string{
		"distinct fingerprints: 6/6",
		"arXiv:2304.04835",
		"arXiv:1808.01708",
		"stimulus domain: " + CrossBlockedDomain,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered matrix missing %q", want)
		}
	}
}
