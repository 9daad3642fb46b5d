package circumvent

import (
	"strings"
	"testing"

	"tspusim/internal/hostnet"
	"tspusim/internal/measure"
	"tspusim/internal/topo"
)

func cvLab(t *testing.T) *topo.Lab {
	t.Helper()
	return topo.Build(topo.Options{Seed: 31, Endpoints: 40, ASes: 4, TrancoN: 100, RegistryN: 100})
}

// labPath is the trial path from a lab vantage to a server stack.
func labPath(lab *topo.Lab, vantage string, server *hostnet.Stack) measure.Path {
	return measure.Path{Sim: lab.Sim, Local: lab.Vantages[vantage].Stack, Remote: server}
}

// target returns the matrix column with the given label.
func target(t *testing.T, label string) Probe {
	t.Helper()
	for _, pr := range Targets() {
		if pr.Label == label {
			return pr
		}
	}
	t.Fatalf("no target %q", label)
	return Probe{}
}

// expected evasion matrix against a single symmetric device (ER-Telecom).
var expectSymmetric = map[string]map[string]bool{
	"baseline":               {"SNI-I": false, "SNI-II": false, "SNI-I+IV": false},
	"server-small-window":    {"SNI-I": true, "SNI-II": true, "SNI-I+IV": true},
	"server-split-handshake": {"SNI-I": true, "SNI-II": false, "SNI-I+IV": false},
	"server-combined":        {"SNI-I": true, "SNI-II": true, "SNI-I+IV": true},
	"server-wait-timeout":    {"SNI-I": true, "SNI-II": true, "SNI-I+IV": true},
	"client-segmentation":    {"SNI-I": true, "SNI-II": true, "SNI-I+IV": true},
	"client-ip-fragmentation": {
		"SNI-I": true, "SNI-II": true, "SNI-I+IV": true,
	},
	"client-ch-padding":       {"SNI-I": true, "SNI-II": true, "SNI-I+IV": true},
	"client-prepend-record":   {"SNI-I": true, "SNI-II": true, "SNI-I+IV": true},
	"client-ttl-junk":         {"SNI-I": false, "SNI-II": false, "SNI-I+IV": false},
	"client-ech":              {"SNI-I": true, "SNI-II": true, "SNI-I+IV": true},
	"client-sni-case":         {"SNI-I": false, "SNI-II": false, "SNI-I+IV": false},
	"client-sni-trailing-dot": {"SNI-I": false, "SNI-II": false, "SNI-I+IV": false},
}

func TestMatrixAgainstSymmetricDevice(t *testing.T) {
	lab := cvLab(t)
	outcomes := Matrix(lab, topo.ERTelecom, lab.US1)
	for _, o := range outcomes {
		want, known := expectSymmetric[o.Strategy][o.Behavior]
		if !known {
			t.Fatalf("no expectation for %s/%s", o.Strategy, o.Behavior)
		}
		if o.Evaded != want {
			t.Errorf("%s vs %s: evaded=%v, want %v", o.Strategy, o.Behavior, o.Evaded, want)
		}
	}
	if !strings.Contains(Render("matrix", outcomes).String(), "EVADES") {
		t.Fatal("render missing evasions")
	}
}

func TestUpstreamOnlyDefeatsSplitHandshakeForSNI2(t *testing.T) {
	// §8: "sites targeted by SNI-II can still be blocked even with the Split
	// Handshake strategy, due to the existence of an upstream-only TSPU
	// device on the path." OBIT's Paris path has one.
	lab := cvLab(t)
	var split, window Strategy
	for _, s := range Strategies() {
		switch s.Name {
		case "server-split-handshake":
			split = s
		case "server-small-window":
			window = s
		}
	}
	sni2 := target(t, "SNI-II")
	p := labPath(lab, topo.OBIT, lab.Paris)

	if Trial(p, split, sni2).Evaded {
		t.Fatal("split handshake should NOT evade SNI-II through an upstream-only device")
	}
	// The small-window strategy segments the CH, which no device can parse,
	// so it survives even the upstream-only installation.
	if !Trial(p, window, sni2).Evaded {
		t.Fatal("small window should still evade through an upstream-only device")
	}
}

func TestSplitHandshakeEvadesSNI1OnUpstreamOnlyPath(t *testing.T) {
	// SNI-I acts only on downstream traffic, which an upstream-only device
	// never sees, so even the baseline SNI-I evasion still works there.
	lab := cvLab(t)
	var split Strategy
	for _, s := range Strategies() {
		if s.Name == "server-split-handshake" {
			split = s
		}
	}
	if !Trial(labPath(lab, topo.OBIT, lab.Paris), split, target(t, "SNI-I")).Evaded {
		t.Fatal("split handshake should evade SNI-I via OBIT's Paris path")
	}
}

func TestWaitTimeoutRequiresFullSleep(t *testing.T) {
	// A 30s delay (below the 60s SYN-SENT timeout) must NOT evade.
	lab := cvLab(t)
	short := Strategy{Name: "server-wait-short", Genome: Genome{ServerDelaySec: 30}}
	if short.Side() != SideServer {
		t.Fatalf("a delay gene makes a %s-side strategy, want server", short.Side())
	}
	if Trial(labPath(lab, topo.ERTelecom, lab.US1), short, target(t, "SNI-I")).Evaded {
		t.Fatal("30s delay should not evade the 60s SYN-SENT timeout")
	}
}
