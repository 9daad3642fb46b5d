package registry

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"tspusim/internal/sim"
	"tspusim/internal/workload"
)

func sampleEntries(t *testing.T, n int) []Entry {
	t.Helper()
	rng := sim.NewRand(7)
	ds := workload.GenRegistry(rng, workload.RegistryOptions{N: n})
	entries := FromWorkload(rng, ds)
	if len(entries) != n {
		t.Fatalf("entries = %d, want %d", len(entries), n)
	}
	return entries
}

func TestMarshalParseRoundTrip(t *testing.T) {
	entries := sampleEntries(t, 200)
	dump := Marshal(entries)
	parsed, err := Parse(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(entries) {
		t.Fatalf("parsed %d of %d", len(parsed), len(entries))
	}
	// Marshal sorts; re-marshal of the parse must be byte-identical.
	if !bytes.Equal(Marshal(parsed), dump) {
		t.Fatal("round trip not stable")
	}
	for _, e := range parsed {
		if e.Domain == "" || e.Added.IsZero() || len(e.IPs) == 0 {
			t.Fatalf("lossy round trip: %+v", e)
		}
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	dump := "# comment\n\n1.2.3.4;site.ru;http://site.ru/;Суд;55-1/2022;2022-03-01\n"
	entries, err := Parse(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Domain != "site.ru" {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestParseMultipleIPs(t *testing.T) {
	dump := "1.2.3.4 | 5.6.7.8;multi.ru;;;;2022-01-15\n"
	entries, err := Parse(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries[0].IPs) != 2 {
		t.Fatalf("IPs = %v", entries[0].IPs)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"only;three;fields\n",
		"1.2.3.4;;url;a;o;2022-01-01\n",       // empty domain
		"notanip;site.ru;;;;2022-01-01\n",     // bad IP
		"1.2.3.4;site.ru;;;;January 1 2022\n", // bad date
	} {
		if _, err := Parse(strings.NewReader(bad)); !errors.Is(err, ErrBadLine) {
			t.Fatalf("accepted %q (err=%v)", bad, err)
		}
	}
}

func TestAddedSince(t *testing.T) {
	entries := sampleEntries(t, 300)
	cut := time.Date(2022, 2, 24, 0, 0, 0, 0, time.UTC)
	recent := AddedSince(entries, cut)
	if len(recent) == 0 || len(recent) == len(entries) {
		t.Fatalf("recent = %d of %d", len(recent), len(entries))
	}
	for _, e := range recent {
		if e.Added.Before(cut) {
			t.Fatalf("entry before cutoff: %v", e.Added)
		}
	}
	// Everything not selected is older.
	if len(AddedSince(entries, time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))) != len(entries) {
		t.Fatal("early cutoff should select everything")
	}
}

func TestLookupSingularQuery(t *testing.T) {
	entries := sampleEntries(t, 100)
	target := entries[42].Domain
	hits := Lookup(entries, strings.ToUpper(target))
	if len(hits) == 0 {
		t.Fatal("case-insensitive lookup failed")
	}
	if Lookup(entries, "definitely-not-listed.example") != nil {
		t.Fatal("phantom hit")
	}
}

func TestFromWorkloadDates(t *testing.T) {
	rng := sim.NewRand(9)
	ds := workload.GenRegistry(rng, workload.RegistryOptions{N: 400})
	entries := FromWorkload(rng, ds)
	war := time.Date(2022, 2, 24, 0, 0, 0, 0, time.UTC)
	warCount := 0
	for i, e := range entries {
		if ds[i].AddedAfterFeb24 {
			if e.Added.Before(war) {
				t.Fatalf("wartime domain dated %v", e.Added)
			}
			warCount++
		} else if !e.Added.Before(war) {
			t.Fatalf("pre-war domain dated %v", e.Added)
		}
	}
	// 12% of 400 is 48; the band is ±50%, about 3.7 binomial σ.
	if warCount < 24 || warCount > 72 {
		t.Fatalf("wartime entries = %d of 400, want about 48", warCount)
	}
}

func TestPropertyParseNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic: %v", r)
			}
		}()
		Parse(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Marshal(sampleEntries(t, 150))
	b := Marshal(sampleEntries(t, 150))
	if !bytes.Equal(a, b) {
		t.Fatal("generation not deterministic")
	}
}
