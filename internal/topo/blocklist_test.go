package topo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"tspusim/internal/dnsx"
	"tspusim/internal/measure"
	"tspusim/internal/topo"
)

// ispBlocklistDigests are the SHA-256s of each vantage's sorted ISP
// blocklist, one name a line, on the seed-1 default lab, recorded when the
// lists were still built with the lab.
var ispBlocklistDigests = map[string]string{
	topo.ERTelecom:  "b29716f637e904006438a8b4eaf796bba8f6c4bc26fac4d71a9c181087be152a",
	topo.OBIT:       "1046aefa15184732eb80608aedd23e14f5cb33b8741d3e7d737caa16d955b82d",
	topo.Rostelecom: "1338f80f5e46fdcd1d08af02aa08ce754c2f182839368446c67b2d6ddc227f74",
}

// TestISPBlocklistsLazy checks that an ISP blocklist built on first use is
// the list the eager build made, whenever and in whatever order it is first
// asked for: right after build, after Table 1 trials (with one list first
// built by its resolver answering a query), and after the registry dump.
func TestISPBlocklistsLazy(t *testing.T) {
	check := func(t *testing.T, l *topo.Lab, order []string) {
		t.Helper()
		for _, v := range order {
			d := l.Vantages[v].ISPBlocklist().Domains()
			sum := sha256.Sum256([]byte(strings.Join(d, "\n")))
			if got := hex.EncodeToString(sum[:]); got != ispBlocklistDigests[v] {
				t.Fatalf("%s blocklist (%d names) digest = %s, want %s", v, len(d), got, ispBlocklistDigests[v])
			}
		}
	}
	t.Run("after-build", func(t *testing.T) {
		l := topo.Build(topo.Options{Seed: 1})
		check(t, l, []string{topo.ERTelecom, topo.OBIT, topo.Rostelecom})
	})
	t.Run("after-table1", func(t *testing.T) {
		l := topo.Build(topo.Options{Seed: 1})
		measure.Reliability(l, 20)
		// OBIT's list is first built by its resolver answering a lookup.
		v := l.Vantages[topo.OBIT]
		var got *dnsx.Message
		dnsx.NewClient(v.Stack, v.ResolverAddr).Lookup(l.Registry[0].Name, func(m *dnsx.Message) { got = m })
		l.Sim.Run()
		if got == nil || len(got.Answers) == 0 {
			t.Fatalf("OBIT resolver answered %+v", got)
		}
		check(t, l, []string{topo.OBIT, topo.Rostelecom, topo.ERTelecom})
	})
	t.Run("after-registry-dump", func(t *testing.T) {
		l := topo.Build(topo.Options{Seed: 1})
		l.RegistryDump()
		check(t, l, []string{topo.Rostelecom, topo.OBIT, topo.ERTelecom})
	})
}
