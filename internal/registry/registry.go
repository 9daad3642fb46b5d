// Package registry implements the Roskomnadzor blocking-registry dump
// format. §6.1 builds its Registry Sample from the "leaked" z-i repository
// [21] — a semicolon-separated dump distributed to ISPs since 2012 and
// validated against signed samples by Ramesh et al. [81]. This package
// reads and writes that format, diffs dumps by date (the paper samples
// "domains added since 2022-01-01"), and bridges to the workload generator
// so labs can build their policy the way an ISP ingests the real file.
//
// Line format (one entry per line, `;`-separated):
//
//	ip[ | ip...];domain;url;agency;order;date
//
// Dates are YYYY-MM-DD. Empty fields are permitted everywhere but domain.
package registry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"tspusim/internal/sim"
	"tspusim/internal/workload"
)

// Entry is one registry record.
type Entry struct {
	IPs    []netip.Addr
	Domain string
	URL    string
	Agency string
	Order  string
	Added  time.Time
}

// ErrBadLine reports an unparseable dump line.
var ErrBadLine = errors.New("registry: malformed line")

// agencies issuing blocking orders, as they appear in real dumps.
var agencies = []string{
	"Роскомнадзор", "Генпрокуратура", "Минюст", "ФНС", "МВД", "Суд",
}

// Marshal renders entries in dump format, sorted by (date, domain) so dumps
// are deterministic and diff-able.
func Marshal(entries []Entry) []byte {
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if !sorted[i].Added.Equal(sorted[j].Added) {
			return sorted[i].Added.Before(sorted[j].Added)
		}
		return sorted[i].Domain < sorted[j].Domain
	})
	var b strings.Builder
	for _, e := range sorted {
		ips := make([]string, len(e.IPs))
		for i, ip := range e.IPs {
			ips[i] = ip.String()
		}
		fmt.Fprintf(&b, "%s;%s;%s;%s;%s;%s\n",
			strings.Join(ips, " | "), e.Domain, e.URL, e.Agency, e.Order,
			e.Added.Format("2006-01-02"))
	}
	return []byte(b.String())
}

// Parse reads a dump. Lines that are blank or comments (#) are skipped;
// malformed lines abort with ErrBadLine and a line number.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ";")
		if len(fields) != 6 {
			return nil, fmt.Errorf("%w %d: %d fields", ErrBadLine, lineNo, len(fields))
		}
		e := Entry{
			Domain: strings.TrimSpace(fields[1]),
			URL:    strings.TrimSpace(fields[2]),
			Agency: strings.TrimSpace(fields[3]),
			Order:  strings.TrimSpace(fields[4]),
		}
		if e.Domain == "" {
			return nil, fmt.Errorf("%w %d: empty domain", ErrBadLine, lineNo)
		}
		for _, ipStr := range strings.Split(fields[0], "|") {
			ipStr = strings.TrimSpace(ipStr)
			if ipStr == "" {
				continue
			}
			ip, err := netip.ParseAddr(ipStr)
			if err != nil {
				return nil, fmt.Errorf("%w %d: ip %q", ErrBadLine, lineNo, ipStr)
			}
			e.IPs = append(e.IPs, ip)
		}
		if ds := strings.TrimSpace(fields[5]); ds != "" {
			t, err := time.Parse("2006-01-02", ds)
			if err != nil {
				return nil, fmt.Errorf("%w %d: date %q", ErrBadLine, lineNo, ds)
			}
			e.Added = t
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// AddedSince selects entries added on or after t — the paper's sampling
// predicate ("added to the registry since January 1, 2022").
func AddedSince(entries []Entry, t time.Time) []Entry {
	var out []Entry
	for _, e := range entries {
		if !e.Added.Before(t) {
			out = append(out, e)
		}
	}
	return out
}

// Domains extracts the domain column.
func Domains(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Domain
	}
	return out
}

// Lookup emulates the public registry's singular CAPTCHA-gated query (§6.1):
// one domain in, matching entries out. Bulk iteration is what the dump is
// for; Lookup exists to mirror the real interface.
func Lookup(entries []Entry, domain string) []Entry {
	var out []Entry
	for _, e := range entries {
		if strings.EqualFold(e.Domain, domain) {
			out = append(out, e)
		}
	}
	return out
}

// FromWorkload converts generated workload domains into registry entries
// with plausible metadata: resolved IPs, issuing agency, order number, and
// an added-date — after 2022-02-24 for wartime additions, spread over the
// preceding months otherwise. It takes one draw from rng, the fork of its
// own stream.
func FromWorkload(rng *sim.Rand, domains []workload.Domain) []Entry {
	return FromStream(rng.Fork("registry-dump"), domains)
}

// FromStream is FromWorkload on the stream FromWorkload forks from rng as
// "registry-dump". A caller that forks that stream itself takes
// FromWorkload's one draw from rng at once and can make the entries later,
// or never.
func FromStream(r *sim.Rand, domains []workload.Domain) []Entry {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	war := time.Date(2022, 2, 24, 0, 0, 0, 0, time.UTC)
	out := make([]Entry, 0, len(domains))
	for i, d := range domains {
		if !d.InRegistry {
			continue
		}
		var added time.Time
		if d.AddedAfterFeb24 {
			added = war.AddDate(0, 0, r.Intn(60))
		} else {
			added = base.AddDate(0, 0, r.Intn(54))
		}
		agency := sim.Pick(r, agencies)
		// Order numbers read NNN-i/2022, NNN drawn after the agency.
		var order [32]byte
		o := strconv.AppendInt(order[:0], int64(100+r.Intn(900)), 10)
		o = append(o, '-')
		o = strconv.AppendInt(o, int64(i), 10)
		o = append(o, "/2022"...)
		e := Entry{
			Domain: d.Name,
			URL:    "http://" + d.Name + "/",
			Agency: agency,
			Order:  string(o),
			Added:  added,
		}
		n := 1 + r.Intn(2)
		e.IPs = make([]netip.Addr, 0, n)
		for j := 0; j < n; j++ {
			e.IPs = append(e.IPs, netip.AddrFrom4([4]byte{
				byte(45 + r.Intn(150)), byte(r.Intn(256)), byte(r.Intn(256)), byte(1 + r.Intn(250)),
			}))
		}
		out = append(out, e)
	}
	return out
}
