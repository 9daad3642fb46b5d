package conformance

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tspusim/internal/ispdpi"
	"tspusim/internal/tspu"
)

var update = flag.Bool("update", false, "rewrite golden .log files")

// baseSeed anchors the generated-scenario corpus. Changing it changes every
// scenario; tests that hunt for particular behaviors search from it.
const baseSeed uint64 = 0xC0FFEE

// TestDifferential runs a large seeded corpus of generated scenarios through
// the simulated device and the paper-derived oracle and requires every trace
// to agree line for line.
func TestDifferential(t *testing.T) {
	const scenarios = 1000
	for n := 0; n < scenarios; n++ {
		tr := Generate(baseSeed, n)
		res := Check(tr, Options{})
		if res.DiffLine >= 0 {
			t.Fatalf("scenario %d (seed 0x%x) diverges:\n%s\ntrace:\n%s",
				n, tr.Seed, res.DiffDesc, tr.Marshal())
		}
		// Spot-check determinism: re-running the device on the same trace must
		// reproduce the log byte for byte.
		if n%97 == 0 {
			if again := RunDevice(tr, Options{}); again != res.DeviceLog {
				t.Fatalf("scenario %d: device log not deterministic across runs", n)
			}
		}
	}
}

// timeoutMutations is the off-by-one fault model: each entry perturbs one
// Table 2 constant by one second.
var timeoutMutations = []struct {
	name string
	mod  func(*tspu.StateTimeouts)
	// maxPackets bounds the shrunk counterexample. Most faults minimize to a
	// trigger, one clock advance, and one probe; SNI-II is observable only
	// through its post-trigger allowance, so its minimal witness needs seven
	// probes (six delivered, the seventh dropped by the drifted device).
	maxPackets int
}{
	{"SynSent+1s", func(s *tspu.StateTimeouts) { s.SynSent += time.Second }, 6},
	{"SynRecv+1s", func(s *tspu.StateTimeouts) { s.SynRecv += time.Second }, 6},
	{"Established+1s", func(s *tspu.StateTimeouts) { s.Established += time.Second }, 6},
	{"SNI1+1s", func(s *tspu.StateTimeouts) { s.SNI1 += time.Second }, 6},
	{"SNI2+1s", func(s *tspu.StateTimeouts) { s.SNI2 += time.Second }, 8},
	{"SNI4+1s", func(s *tspu.StateTimeouts) { s.SNI4 += time.Second }, 6},
	{"QUIC+1s", func(s *tspu.StateTimeouts) { s.QUIC += time.Second }, 6},
	{"Frag+1s", func(s *tspu.StateTimeouts) { s.Frag += time.Second }, 6},
}

// TestInjectedTimeoutCaught proves the harness has teeth: for every timeout
// in the device's table, a one-second drift must be caught by the generated
// corpus, and the failing scenario must shrink to a counterexample of at most
// six packets that passes again once the fault is removed.
func TestInjectedTimeoutCaught(t *testing.T) {
	const searchLimit = 400
	for _, m := range timeoutMutations {
		m := m
		t.Run(m.name, func(t *testing.T) {
			bad := tspu.DefaultTimeouts()
			m.mod(&bad)
			opts := Options{DeviceTimeouts: &bad}
			var caught *Trace
			for n := 0; n < searchLimit; n++ {
				tr := Generate(baseSeed, n)
				if Check(tr, opts).DiffLine >= 0 {
					caught = tr
					break
				}
			}
			if caught == nil {
				t.Fatalf("fault %s not caught in %d scenarios", m.name, searchLimit)
			}
			shrunk := Shrink(caught, func(c *Trace) bool {
				return Check(c, opts).DiffLine >= 0
			}, 1500)
			if got := shrunk.Packets(); got > m.maxPackets {
				t.Errorf("shrunk counterexample still has %d packets (> %d):\n%s",
					got, m.maxPackets, shrunk.Marshal())
			}
			if res := Check(shrunk, Options{}); res.DiffLine >= 0 {
				t.Errorf("shrunk counterexample diverges even without the fault "+
					"(oracle bug, not the injection):\n%s", res.DiffDesc)
			}
			t.Logf("fault %s: %d-step, %d-packet counterexample:\n%s",
				m.name, len(shrunk.Steps), shrunk.Packets(), shrunk.Marshal())
		})
	}
}

// TestComparatorsDiverge runs non-TSPU middleboxes from internal/ispdpi
// through the same executor and requires the oracle to notice they are not a
// TSPU — the discriminating power §7's fingerprinting relies on.
func TestComparatorsDiverge(t *testing.T) {
	// A keyword DPI resets on the ClientHello itself; a TSPU delivers the
	// trigger and rewrites only downstream packets.
	keyword, err := Parse(`tspu-conformance-trace v1
seed 0x51
tcp L flow=0 flags=0x02
tcp R flow=0 flags=0x12
tcp L flow=0 flags=0x10
tcp L flow=0 flags=0x18 ch=plain:dw.com
tcp R flow=0 flags=0x18 data=100
`)
	if err != nil {
		t.Fatal(err)
	}
	res := Check(keyword, Options{
		Middlebox: &ispdpi.KeywordDPI{ISP: "test", Keywords: []string{"dw.com"}},
	})
	if res.DiffLine < 0 {
		t.Errorf("keyword DPI indistinguishable from TSPU oracle:\n%s", res.DeviceLog)
	}

	// A reassembling fragment middlebox forwards one whole packet; a TSPU
	// releases the individual fragments with rewritten TTLs.
	frags, err := Parse(`tspu-conformance-trace v1
seed 0x52
frag L id=11 off=8 len=16 mf=0 ttl=12
frag L id=11 off=0 len=8 mf=1 ttl=64
`)
	if err != nil {
		t.Fatal(err)
	}
	res = Check(frags, Options{
		Middlebox: ispdpi.NewFragLimitMiddlebox("cisco", 24),
	})
	if res.DiffLine < 0 {
		t.Errorf("reassembling middlebox indistinguishable from TSPU oracle:\n%s", res.DeviceLog)
	}
}

// TestGoldenTraces replays each hand-written golden trace, requires device
// and oracle to agree, and pins the shared log against the checked-in .log
// file. Regenerate with: go test ./internal/conformance -run Golden -update
func TestGoldenTraces(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden traces found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(strings.TrimSuffix(filepath.Base(f), ".trace"), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Parse(string(data))
			if err != nil {
				t.Fatal(err)
			}
			res := Check(tr, Options{})
			if res.DiffLine >= 0 {
				t.Fatalf("golden trace diverges:\n%s", res.DiffDesc)
			}
			logPath := strings.TrimSuffix(f, ".trace") + ".log"
			if *update {
				if err := os.WriteFile(logPath, []byte(res.DeviceLog), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatalf("missing golden log (run with -update): %v", err)
			}
			if string(want) != res.DeviceLog {
				line, desc := Diff(res.DeviceLog, string(want))
				t.Errorf("log drifted from %s at line %d:\n%s", logPath, line+1, desc)
			}
		})
	}
}

// TestRegressTraces replays the shrunk counterexamples that past fault
// injections produced. They must stay divergence-free on a correct device.
func TestRegressTraces(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "regress", "*.trace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no regression traces found: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(strings.TrimSuffix(filepath.Base(f), ".trace"), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Parse(string(data))
			if err != nil {
				t.Fatal(err)
			}
			if res := Check(tr, Options{}); res.DiffLine >= 0 {
				t.Errorf("regression trace diverges:\n%s", res.DiffDesc)
			}
		})
	}
}

// TestTraceRoundTrip pins the trace serialization: Marshal∘Parse must be the
// identity on every generated scenario.
func TestTraceRoundTrip(t *testing.T) {
	for n := 0; n < 200; n++ {
		tr := Generate(baseSeed, n)
		text := tr.Marshal()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("scenario %d: %v\n%s", n, err, text)
		}
		if again := back.Marshal(); again != text {
			line, desc := Diff(again, text)
			t.Fatalf("scenario %d: round trip drifted at line %d:\n%s", n, line+1, desc)
		}
	}
}
