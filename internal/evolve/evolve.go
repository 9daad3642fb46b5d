// Package evolve is a Geneva-style automated evasion search (Bock et al.,
// CCS 2019 — cited by the paper as [38]) run against the TSPU model: a small
// genetic search over client-side packet-manipulation genomes that
// rediscovers, without being told about them, the §8 strategies that work —
// segmentation, fragmentation, padding-before-SNI, record-prepending — and
// learns that TTL-limited junk no longer helps. Because the device model is
// the paper's executable spec, anything the search finds here is a strategy
// the paper's observations imply should work against the real device.
package evolve

import (
	"fmt"
	"sort"
	"strings"

	"tspusim/internal/circumvent"
	"tspusim/internal/hostnet"
	"tspusim/internal/packet"
	"tspusim/internal/report"
	"tspusim/internal/sim"
	"tspusim/internal/tlsx"
	"tspusim/internal/topo"
)

// Genome is one candidate client-side strategy: a bundle of independently
// togglable packet manipulations.
type Genome struct {
	// SegmentSize, when non-zero, caps the client MSS (TCP segmentation).
	SegmentSize int
	// FragmentPayload, when non-zero, sends the CH as IP fragments of this
	// payload size (multiple of 8).
	FragmentPayload int
	// PadBeforeSNI, when non-zero, inserts a padding extension of this many
	// bytes before the SNI.
	PadBeforeSNI int
	// PrependRecord prepends a non-handshake TLS record.
	PrependRecord bool
	// JunkTTL, when non-zero, sends a TTL-limited garbage packet before the
	// CH (the historical, now-mitigated insertion strategy).
	JunkTTL int
	// Server-side genes (the "come as you are" space of Bock et al. [37]):
	// ServerWindow advertises a small receive window in the SYN/ACK;
	// ServerSplit answers SYN with a bare SYN; ServerDelaySec delays the
	// handshake reply past conntrack eviction.
	ServerWindow   int
	ServerSplit    bool
	ServerDelaySec int
}

// IsNoop reports whether the genome applies no manipulation.
func (g Genome) IsNoop() bool {
	return g.SegmentSize == 0 && g.FragmentPayload == 0 && g.PadBeforeSNI == 0 &&
		!g.PrependRecord && g.JunkTTL == 0 &&
		g.ServerWindow == 0 && !g.ServerSplit && g.ServerDelaySec == 0
}

// Complexity counts active genes — the search prefers simpler strategies.
func (g Genome) Complexity() int {
	n := 0
	if g.SegmentSize > 0 {
		n++
	}
	if g.FragmentPayload > 0 {
		n++
	}
	if g.PadBeforeSNI > 0 {
		n++
	}
	if g.PrependRecord {
		n++
	}
	if g.JunkTTL > 0 {
		n++
	}
	if g.ServerWindow > 0 {
		n++
	}
	if g.ServerSplit {
		n++
	}
	if g.ServerDelaySec > 0 {
		n++
	}
	return n
}

func (g Genome) String() string {
	var parts []string
	if g.SegmentSize > 0 {
		parts = append(parts, fmt.Sprintf("segment(%d)", g.SegmentSize))
	}
	if g.FragmentPayload > 0 {
		parts = append(parts, fmt.Sprintf("fragment(%d)", g.FragmentPayload))
	}
	if g.PadBeforeSNI > 0 {
		parts = append(parts, fmt.Sprintf("pad-before-sni(%d)", g.PadBeforeSNI))
	}
	if g.PrependRecord {
		parts = append(parts, "prepend-record")
	}
	if g.JunkTTL > 0 {
		parts = append(parts, fmt.Sprintf("junk(ttl=%d)", g.JunkTTL))
	}
	if g.ServerWindow > 0 {
		parts = append(parts, fmt.Sprintf("srv-window(%d)", g.ServerWindow))
	}
	if g.ServerSplit {
		parts = append(parts, "srv-split")
	}
	if g.ServerDelaySec > 0 {
		parts = append(parts, fmt.Sprintf("srv-delay(%ds)", g.ServerDelaySec))
	}
	if len(parts) == 0 {
		return "noop"
	}
	return strings.Join(parts, "+")
}

// Random draws a genome with a bias toward few active genes.
func Random(r *sim.Rand) Genome {
	var g Genome
	if r.Bool(0.4) {
		g.SegmentSize = 16 * r.IntRange(1, 16) // 16..256
	}
	if r.Bool(0.3) {
		g.FragmentPayload = 8 * r.IntRange(2, 16) // 16..128
	}
	if r.Bool(0.3) {
		g.PadBeforeSNI = 50 * r.IntRange(1, 14) // 50..700
	}
	if r.Bool(0.25) {
		g.PrependRecord = true
	}
	if r.Bool(0.25) {
		g.JunkTTL = r.IntRange(1, 5)
	}
	if r.Bool(0.2) {
		g.ServerWindow = 50 * r.IntRange(1, 6) // 50..300
	}
	if r.Bool(0.15) {
		g.ServerSplit = true
	}
	if r.Bool(0.1) {
		g.ServerDelaySec = []int{30, 61, 70}[r.Intn(3)]
	}
	return g
}

// Mutate flips or perturbs one gene.
func (g Genome) Mutate(r *sim.Rand) Genome {
	switch r.Intn(8) {
	case 0:
		if g.SegmentSize == 0 {
			g.SegmentSize = 16 * r.IntRange(1, 16)
		} else if r.Bool(0.5) {
			g.SegmentSize = 0
		} else {
			g.SegmentSize = 16 * r.IntRange(1, 16)
		}
	case 1:
		if g.FragmentPayload == 0 {
			g.FragmentPayload = 8 * r.IntRange(2, 16)
		} else {
			g.FragmentPayload = 0
		}
	case 2:
		if g.PadBeforeSNI == 0 {
			g.PadBeforeSNI = 50 * r.IntRange(1, 14)
		} else {
			g.PadBeforeSNI = 0
		}
	case 3:
		g.PrependRecord = !g.PrependRecord
	case 4:
		if g.JunkTTL == 0 {
			g.JunkTTL = r.IntRange(1, 5)
		} else {
			g.JunkTTL = 0
		}
	case 5:
		if g.ServerWindow == 0 {
			g.ServerWindow = 50 * r.IntRange(1, 6)
		} else {
			g.ServerWindow = 0
		}
	case 6:
		g.ServerSplit = !g.ServerSplit
	default:
		if g.ServerDelaySec == 0 {
			g.ServerDelaySec = []int{30, 61, 70}[r.Intn(3)]
		} else {
			g.ServerDelaySec = 0
		}
	}
	return g
}

// Strategy compiles the genome into an evaluable circumvention strategy.
func (g Genome) Strategy() circumvent.Strategy {
	side := circumvent.SideClient
	if g.ServerWindow > 0 || g.ServerSplit || g.ServerDelaySec > 0 {
		side = circumvent.SideServer
	}
	s := circumvent.Strategy{Name: g.String(), Side: side}
	if g.ServerWindow > 0 || g.ServerSplit || g.ServerDelaySec > 0 {
		win, split, delay := g.ServerWindow, g.ServerSplit, g.ServerDelaySec
		s.Listen = func(o *hostnet.ListenOptions) {
			if win > 0 {
				o.Window = uint16(win)
			}
			o.SplitHandshake = split
			if delay > 0 {
				o.ResponseDelay = delay * 1000
			}
		}
	}
	if g.SegmentSize > 0 {
		seg := g.SegmentSize
		s.Dial = func(o *hostnet.DialOptions) { o.MSS = seg }
	}
	if g.PadBeforeSNI > 0 || g.PrependRecord {
		pad, pre := g.PadBeforeSNI, g.PrependRecord
		s.BuildCH = func(domain string) []byte {
			spec := &tlsx.ClientHelloSpec{ServerName: domain, PrependRecord: pre}
			if pad > 0 {
				spec.ExtraExts = []tlsx.Extension{{Type: tlsx.ExtensionPadding, Data: make([]byte, pad)}}
			}
			return spec.Build()
		}
	}
	if g.FragmentPayload > 0 || g.JunkTTL > 0 {
		frag, junk := g.FragmentPayload, g.JunkTTL
		s.SendCH = func(lab *topo.Lab, conn *hostnet.TCPConn, ch []byte) {
			if junk > 0 {
				j := packet.NewTCP(conn.LocalAddr, conn.RemoteAddr, conn.LocalPort, conn.RemotePort,
					packet.FlagsPSHACK, conn.SndNxt, conn.RcvNxt, make([]byte, 32))
				j.IP.TTL = uint8(junk)
				j.IP.ID = conn.Stack().NextIPID()
				conn.Stack().Send(j)
			}
			if frag > 0 {
				p := packet.NewTCP(conn.LocalAddr, conn.RemoteAddr, conn.LocalPort, conn.RemotePort,
					packet.FlagsPSHACK, conn.SndNxt, conn.RcvNxt, ch)
				p.IP.ID = conn.Stack().NextIPID()
				frags, err := packet.Fragment(p, frag)
				if err == nil && len(frags) > 1 {
					for _, f := range frags {
						conn.Stack().Send(f)
					}
					conn.SndNxt += uint32(len(ch))
					return
				}
			}
			conn.Send(ch)
		}
	}
	return s
}

// Discovered is one search result.
type Discovered struct {
	Genome  Genome
	Fitness int // targets evaded (0..len(Targets))
}

// SearchOptions tune the genetic search.
type SearchOptions struct {
	Population  int // default 14
	Generations int // default 6
	Vantage     string
}

// sortDiscovered orders candidates by fitness (descending), then simplicity,
// keeping discovery order among ties.
func sortDiscovered(ds []Discovered) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].Fitness != ds[j].Fitness {
			return ds[i].Fitness > ds[j].Fitness
		}
		return ds[i].Genome.Complexity() < ds[j].Genome.Complexity()
	})
}

// Search runs the genetic search against the lab and returns all evaluated
// candidates sorted by fitness (descending), then simplicity. Full-fitness
// winners are ddmin-shrunk to one-minimal genomes before reporting, so the
// top of the list names the necessary mechanisms, not whatever junk genes a
// random draw happened to carry along.
func Search(lab *topo.Lab, server *hostnet.Stack, opts SearchOptions) []Discovered {
	if opts.Vantage == "" {
		opts.Vantage = topo.ERTelecom
	}
	r := lab.Rand.Fork("evolve")
	targets := circumvent.Targets()

	fitness := func(g Genome) int {
		if g.IsNoop() {
			return 0
		}
		n := 0
		strat := g.Strategy()
		for _, t := range targets {
			if circumvent.Evaluate(lab, opts.Vantage, server, strat, t) {
				n++
			}
		}
		return n
	}

	all := SearchBatch(r, opts, func(gs []Genome) []int {
		// The lab is shared mutable state, so candidates — duplicates
		// included — are evaluated strictly in slice order, preserving the
		// exact evaluation sequence of the pre-batch search.
		fits := make([]int, len(gs))
		for i, g := range gs {
			fits[i] = fitness(g)
		}
		return fits
	})

	// Shrink after the search so the extra evaluations never perturb the
	// evaluation sequence the search itself saw. A memo keeps the repeated
	// sub-genome probes cheap: shrunk winners funnel through the same small
	// set of single-gene forms.
	memo := map[Genome]int{}
	memoFit := func(g Genome) int {
		if f, ok := memo[g]; ok {
			return f
		}
		f := fitness(g)
		memo[g] = f
		return f
	}
	out := make([]Discovered, 0, len(all))
	seen := map[string]bool{}
	for _, d := range all {
		if d.Fitness == len(targets) {
			d.Genome = Shrink(d.Genome, func(g Genome) bool { return memoFit(g) == len(targets) })
		}
		if !seen[d.Genome.String()] {
			seen[d.Genome.String()] = true
			out = append(out, d)
		}
	}
	sortDiscovered(out)
	return out
}

// Render summarizes a search.
// The ranked genome list carries no stats: a rank is not a stable key.
func Render(results []Discovered) *report.Doc {
	full, tried := 0, len(results)
	for _, d := range results {
		if d.Fitness == 3 {
			full++
		}
	}
	doc := new(report.Doc).
		Text("== Geneva-style evasion search against the TSPU model ==\n").
		Textf("candidates evaluated: %d, ", tried).
		Textf("full evasions found: %d\n", full)
	top := results
	if len(top) > 8 {
		top = top[:8]
	}
	for _, d := range top {
		doc.Text(fmt.Sprintf("  fitness %d/3  %s\n", d.Fitness, d.Genome))
	}
	return doc
}
