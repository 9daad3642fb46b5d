package conformance

import (
	"testing"

	"tspusim/internal/censor"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// ifaceBox routes every middlebox call through an interface-typed
// censor.Censor value instead of the concrete *tspu.Device. If the interface
// extraction ever grows adapter logic — a copy, a cast, a default — this is
// where it would diverge.
type ifaceBox struct {
	c censor.Censor
}

func (b ifaceBox) Name() string { return b.c.Name() }

func (b ifaceBox) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	return b.c.Handle(pipe, pkt, dir)
}

func wrapAsCensor(mb netem.Middlebox) netem.Middlebox {
	c, ok := mb.(censor.Censor)
	if !ok {
		panic("conformance: device under test does not implement censor.Censor")
	}
	return ifaceBox{c: c}
}

// TestInterfaceTypedDeviceConformance replays the full generated corpus
// through a TSPU reached only via the censor.Censor interface and requires
// zero divergence from the oracle AND byte-identical logs against the
// concrete-typed run — the promotion of the interface must be a pure
// type-level seam.
func TestInterfaceTypedDeviceConformance(t *testing.T) {
	const scenarios = 1000
	wrapped := Options{WrapDevice: wrapAsCensor}
	for n := 0; n < scenarios; n++ {
		tr := Generate(baseSeed, n)
		res := Check(tr, wrapped)
		if res.DiffLine >= 0 {
			t.Fatalf("scenario %d (seed 0x%x) diverges via interface dispatch:\n%s\ntrace:\n%s",
				n, tr.Seed, res.DiffDesc, tr.Marshal())
		}
		// Every 53rd scenario, also diff against the concrete-typed device
		// log (a full double run of the corpus would double the suite's
		// wall time for no additional fault classes).
		if n%53 == 0 {
			concrete := RunDevice(tr, Options{})
			if concrete != res.DeviceLog {
				t.Fatalf("scenario %d: interface-typed log differs from concrete-typed log", n)
			}
		}
	}
}

// TestInterfaceIntrospectionHooks: the introspection methods the measure
// probes rely on must be reachable through the interface and agree with the
// concrete device — here via a trivial smoke trace.
func TestInterfaceIntrospectionHooks(t *testing.T) {
	tr := Generate(baseSeed, 0)
	var seen censor.Censor
	opts := Options{WrapDevice: func(mb netem.Middlebox) netem.Middlebox {
		seen = mb.(censor.Censor)
		return mb
	}}
	if res := Check(tr, opts); res.DiffLine >= 0 {
		t.Fatalf("smoke trace diverges: %s", res.DiffDesc)
	}
	if seen == nil {
		t.Fatal("WrapDevice never called")
	}
	if seen.ConntrackSize() < 0 || seen.PendingFragQueues() < 0 {
		t.Fatal("introspection hooks returned negative sizes")
	}
}
