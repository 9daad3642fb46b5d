package measure

import (
	"strings"
	"testing"
)

// A shrunk run of the at-scale exhaustion experiment: the paper-scale
// flood shape (70 s, above the 60 s SYN timeout so the tail churns, below
// the 75 s hold), offered load small enough to finish in milliseconds.
func TestStateExhaustionAtScale(t *testing.T) {
	cfg := ExhaustScaleConfig{
		Seed:   1,
		Rate:   500,
		Bounds: []int{0, 1 << 16, 1 << 7},
	}
	res := StateExhaustionAtScale(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	offered := cfg.Rate * 70

	unlimited := res.Rows[0]
	if !unlimited.Survived {
		t.Fatal("unlimited table: hold did not survive the flood")
	}
	if unlimited.PressureEvictions != 0 {
		t.Fatalf("unlimited table recorded %d pressure evictions", unlimited.PressureEvictions)
	}
	if unlimited.Offered != offered {
		t.Fatalf("offered = %d, want %d", unlimited.Offered, offered)
	}
	// The plateau: concurrency peaks near Rate x 60s (the SYN timeout), not
	// at total offered load.
	plateau := cfg.Rate * 60
	if unlimited.PeakTable < plateau*8/10 || unlimited.PeakTable > offered {
		t.Fatalf("peak table %d outside (%d, %d]", unlimited.PeakTable, plateau*8/10, offered)
	}
	// Churn past the plateau is served by the entry pool, not fresh
	// allocation: allocations track peak concurrency (within a second of
	// load, since the peak is sampled once per batch and per-shard peaks
	// need not coincide with it), never total offered flows.
	if unlimited.PoolAllocs > unlimited.PeakTable+cfg.Rate {
		t.Fatalf("pool allocated %d entries for a %d peak — churn is not reusing", unlimited.PoolAllocs, unlimited.PeakTable)
	}
	if unlimited.PoolReuses == 0 {
		t.Fatal("no pool reuses despite churn past the SYN timeout")
	}
	if unlimited.Leaked != 0 {
		t.Fatalf("%d entries leaked after full age-out", unlimited.Leaked)
	}

	// A generously bounded table still shields the hold; a tiny one sheds it.
	if generous := res.Rows[1]; !generous.Survived {
		t.Fatalf("bound %d: hold should survive", generous.MaxFlows)
	}
	tiny := res.Rows[2]
	if tiny.Survived {
		t.Fatalf("bound %d: hold survived a flood %dx its table", tiny.MaxFlows, offered/tiny.MaxFlows)
	}
	if tiny.PressureEvictions == 0 {
		t.Fatal("tiny bound saw no pressure evictions")
	}
	if tiny.PeakTable > tiny.MaxFlows+8 { // per-shard rounding slack
		t.Fatalf("bound %d: peak table %d exceeded the bound", tiny.MaxFlows, tiny.PeakTable)
	}
	if tiny.Leaked != 0 {
		t.Fatalf("bounded run leaked %d entries", tiny.Leaked)
	}

	out := res.Render().String()
	for _, want := range []string{"State exhaustion at scale", "unlimited", "provisioning"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
