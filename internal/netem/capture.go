package netem

import (
	"fmt"
	"strings"
	"time"

	"tspusim/internal/packet"
)

// Capture records packets crossing a link, in the spirit of a pcap tap. Each
// record notes whether it was taken at wire entry (before the middlebox
// chain) or at delivery (after the chain and propagation delay) so tests can
// observe middlebox rewrites.
type Capture struct {
	Name    string
	Records []CaptureRecord
	// Filter, when non-nil, limits recording to matching packets.
	Filter func(*packet.Packet) bool
}

// CaptureRecord is one captured packet.
type CaptureRecord struct {
	Time  time.Duration
	Link  *Link
	Dir   Direction
	Entry bool // true = entering the wire, false = delivered
	Pkt   *packet.Packet
}

// NewCapture returns an empty capture.
func NewCapture(name string) *Capture { return &Capture{Name: name} }

func (c *Capture) record(l *Link, pkt *packet.Packet, dir Direction, entry bool) {
	if c.Filter != nil && !c.Filter(pkt) {
		return
	}
	c.Records = append(c.Records, CaptureRecord{
		Time:  l.net.Sim.Now(),
		Link:  l,
		Dir:   dir,
		Entry: entry,
		Pkt:   pkt.Clone(),
	})
}

// Delivered returns only the records taken at delivery, i.e. packets that
// survived the middlebox chain.
func (c *Capture) Delivered() []CaptureRecord {
	var out []CaptureRecord
	for _, r := range c.Records {
		if !r.Entry {
			out = append(out, r)
		}
	}
	return out
}

// Dump renders a human-readable trace, one packet per line, used by the
// examples to print Fig. 2-style diagrams.
func (c *Capture) Dump() string {
	var b strings.Builder
	for _, r := range c.Records {
		stage := "deliver"
		if r.Entry {
			stage = "entry  "
		}
		fmt.Fprintf(&b, "%8.3fms %s %s %s\n", float64(r.Time)/float64(time.Millisecond), stage, r.Dir, r.Pkt)
	}
	return b.String()
}
