package circumvent

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Genome is a strategy's packet manipulations: a bundle of independently
// togglable genes. The zero Genome applies none.
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

// NumGenes is the size of the gene space; genes are numbered in String()
// rendering order.
const NumGenes = 8

// geneNames holds each gene's rendering: a flag gene renders as its prefix,
// a parameter gene as prefix, value, suffix. max bounds a parameter gene's
// decoded value: the width of the wire field Trial writes it into (the junk
// packet's 8-bit TTL, the 16-bit advertised window), or maxGeneValue.
var geneNames = [NumGenes]struct {
	prefix, suffix string
	max            int
}{
	{"segment(", ")", maxGeneValue},
	{"fragment(", ")", maxGeneValue},
	{"pad-before-sni(", ")", maxGeneValue},
	{"prepend-record", "", 0},
	{"junk(ttl=", ")", math.MaxUint8},
	{"srv-window(", ")", math.MaxUint16},
	{"srv-split", "", 0},
	{"srv-delay(", "s)", maxGeneValue},
}

// gene returns gene i's field: a parameter or a flag.
func (g *Genome) gene(i int) (*int, *bool) {
	switch i {
	case 0:
		return &g.SegmentSize, nil
	case 1:
		return &g.FragmentPayload, nil
	case 2:
		return &g.PadBeforeSNI, nil
	case 3:
		return nil, &g.PrependRecord
	case 4:
		return &g.JunkTTL, nil
	case 5:
		return &g.ServerWindow, nil
	case 6:
		return nil, &g.ServerSplit
	default:
		return &g.ServerDelaySec, nil
	}
}

// Without returns a copy of g with gene i cleared.
func (g Genome) Without(i int) Genome {
	if n, b := g.gene(i); n != nil {
		*n = 0
	} else {
		*b = false
	}
	return g
}

// IsNoop reports whether the genome applies no manipulation.
func (g Genome) IsNoop() bool { return g == Genome{} }

// Complexity counts active genes — the search prefers simpler strategies.
func (g Genome) Complexity() int { return bits.OnesCount8(g.Signature()) }

// Signature is the genome's active-gene bitmask — two genomes with the same
// signature use the same mechanisms with different parameters. The arms-race
// corpus dedups pins by signature so "segment(64)" and "segment(112)" count
// as one discovered strategy.
func (g Genome) Signature() uint8 {
	var s uint8
	for i := 0; i < NumGenes; i++ {
		if g.Without(i) != g {
			s |= 1 << uint(i)
		}
	}
	return s
}

// String renders the corpus form: the active genes in gene order, joined by
// "+", or "noop".
func (g Genome) String() string {
	var parts []string
	for i, name := range geneNames {
		switch n, b := g.gene(i); {
		case b != nil && *b:
			parts = append(parts, name.prefix)
		case n != nil && *n > 0:
			parts = append(parts, name.prefix+strconv.Itoa(*n)+name.suffix)
		}
	}
	if len(parts) == 0 {
		return "noop"
	}
	return strings.Join(parts, "+")
}

// Decode parses the String() rendering back into a Genome, making the
// human-readable strategy label the corpus serialization format too. Genes
// may appear in any order but at most once; values must be positive and
// small enough to be a plausible packet-manipulation parameter. For any
// successfully decoded g, Decode(g.String()) == g (pinned by FuzzGenome).
func Decode(s string) (Genome, error) {
	var g Genome
	if s == "noop" {
		return g, nil
	}
	if s == "" {
		return g, fmt.Errorf("circumvent: empty genome string")
	}
	for _, part := range strings.Split(s, "+") {
		if err := g.set(part); err != nil {
			return Genome{}, fmt.Errorf("circumvent: decode %q: %w", s, err)
		}
	}
	return g, nil
}

// maxGeneValue bounds decoded parameters with no narrower wire field: every
// legitimate MSS, fragment payload, pad length and delay is far below it,
// and it keeps a hostile corpus entry from requesting a gigabyte pad.
const maxGeneValue = 1 << 20

// set turns on the gene that part renders.
func (g *Genome) set(part string) error {
	for i, name := range geneNames {
		n, b := g.gene(i)
		if b != nil {
			if part != name.prefix {
				continue
			}
			if *b {
				return fmt.Errorf("duplicate gene")
			}
			*b = true
			return nil
		}
		body, ok := strings.CutPrefix(part, name.prefix)
		if !ok {
			continue
		}
		if *n != 0 {
			return fmt.Errorf("duplicate gene")
		}
		if body, ok = strings.CutSuffix(body, name.suffix); !ok {
			return fmt.Errorf("malformed gene %q", part)
		}
		v, err := strconv.Atoi(body)
		if err != nil || v <= 0 || v > name.max || strconv.Itoa(v) != body {
			return fmt.Errorf("bad gene value %q", part)
		}
		*n = v
		return nil
	}
	return fmt.Errorf("unknown gene %q", part)
}
