package conformance

import (
	"reflect"
	"testing"
)

// FuzzTraceParse holds the trace format to its two contracts: Parse never
// panics, whatever the text (trace files are hand-edited), and Parse is the
// inverse of Marshal on every generated scenario, field for field. The seed
// corpus is one generated trace plus truncated lines of every step kind;
// testdata/fuzz/FuzzTraceParse keeps the bare "seed" line that once indexed
// past the end of its fields.
func FuzzTraceParse(f *testing.F) {
	f.Add(Generate(baseSeed, 0).Marshal(), baseSeed, uint16(0))
	for _, line := range []string{
		"seed", "seed 0x", "tcp", "tcp L", "tcp L flow=0", "tcp L flow=0 flags=0x18 ch=plain",
		"udp R flow=1", "icmp L", "frag L id=1 off=0", "fragflood R id=2", "adv", "adv 5x",
		"maxflows", "pol", "pol add sni1", "pol nope x", "bogus",
	} {
		f.Add(traceMagic+"\n"+line+"\n", uint64(len(line)), uint16(len(line)))
	}
	f.Fuzz(func(t *testing.T, text string, base uint64, n uint16) {
		if tr, err := Parse(text); err == nil {
			tr.Marshal() // must not panic either
		}
		want := Generate(base, int(n))
		got, err := Parse(want.Marshal())
		if err != nil {
			t.Fatalf("Parse(Marshal(Generate(0x%x, %d))): %v", base, n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Generate(0x%x, %d) round trip drifted:\n got %+v\nwant %+v", base, n, got, want)
		}
	})
}
