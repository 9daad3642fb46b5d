// Counter-evolution watcher middleboxes: the censor side's table-driven
// upgrades. Each watcher sits on the censor link *in front of* the base
// censor model (see topo.BuildCensorTestbedBare), so anything it re-injects
// re-enters the middlebox chain at the censor — a reassembled whole packet
// is inspected exactly as if the client had never split it.
package armsrace

import (
	"tspusim/internal/censor"
	"tspusim/internal/netem"
	"tspusim/internal/packet"
)

// fragReassembler is the "add reassembly" countermeasure for censors whose
// fragment engines forward without inspection (TM §6.2, the IN profiles, the
// keyword DPI): buffer each queue, reassemble, and re-inject the whole
// packet in front of the censor. It only watches the client→server
// direction — the direction the probed triggers travel.
type fragReassembler struct {
	dir   netem.Direction
	reasm packet.Reassembler
	// Reassembled counts whole packets re-injected.
	Reassembled int
}

func newFragReassembler(dir netem.Direction) *fragReassembler {
	return &fragReassembler{dir: dir}
}

// Name implements netem.Middlebox.
func (m *fragReassembler) Name() string { return "cm/frag-reassembly" }

// Handle implements netem.Middlebox.
func (m *fragReassembler) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if dir != m.dir || !pkt.IsFragment() {
		return netem.Pass
	}
	if whole, _ := m.reasm.Add(pkt, pipe.After); whole != nil {
		m.Reassembled++
		pipe.Inject(whole, dir)
	}
	return netem.Drop
}

// streamScan is the "add stream reassembly" countermeasure: it accumulates
// each flow's censor-ward payload bytes and tears the connection down
// TM-style (censor.InjectRSTPair) once the blocked name appears anywhere in
// the accumulated stream — across TCP segment boundaries, behind a prepended
// record, inside a padded ClientHello. The per-flow buffer is capped;
// legitimate flows never accumulate more than the cap before the name would
// have appeared.
type streamScan struct {
	needle []byte // lowercase
	dir    netem.Direction
	bufs   map[packet.FlowKey4][]byte
	fired  map[packet.FlowKey4]bool
	// Hits counts flows torn down.
	Hits int
}

// streamScanCap bounds the per-flow accumulation window: a realistic
// ClientHello plus any modeled padding fits well inside it.
const streamScanCap = 8192

func newStreamScan(needle string, dir netem.Direction) *streamScan {
	return &streamScan{
		needle: foldBytes(needle),
		dir:    dir,
		bufs:   make(map[packet.FlowKey4][]byte),
		fired:  make(map[packet.FlowKey4]bool),
	}
}

// Name implements netem.Middlebox.
func (m *streamScan) Name() string { return "cm/stream-scan" }

// Handle implements netem.Middlebox.
func (m *streamScan) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if dir != m.dir || pkt.TCP == nil || len(pkt.TCP.Payload) == 0 {
		return netem.Pass
	}
	key := packet.FlowKey4Of(pkt)
	if m.fired[key] {
		return netem.Drop // flow already torn down; eat stragglers
	}
	buf := m.bufs[key]
	if len(buf) < streamScanCap {
		buf = append(buf, pkt.TCP.Payload...)
		m.bufs[key] = buf
	}
	if !containsFold(buf, m.needle) {
		return netem.Pass
	}
	m.fired[key] = true
	delete(m.bufs, key)
	m.Hits++
	censor.InjectRSTPair(pipe, pkt, dir)
	return netem.Drop
}

// byteScan is the parser-bypass countermeasure: a stateless, case-folded
// raw-byte search over each packet's payload, no record or header parse at
// all. It catches prepend-record (whose whole trick is breaking the
// single-record parser) and padded ClientHellos, but still loses to
// segmentation and fragmentation — the name never appears whole in one
// packet.
type byteScan struct {
	needle []byte // lowercase
	dir    netem.Direction
	// Hits counts packets matched.
	Hits int
}

func newByteScan(needle string, dir netem.Direction) *byteScan {
	return &byteScan{needle: foldBytes(needle), dir: dir}
}

// Name implements netem.Middlebox.
func (m *byteScan) Name() string { return "cm/byte-scan" }

// Handle implements netem.Middlebox.
func (m *byteScan) Handle(pipe netem.Pipe, pkt *packet.Packet, dir netem.Direction) netem.Action {
	if dir != m.dir || pkt.TCP == nil || len(pkt.TCP.Payload) == 0 {
		return netem.Pass
	}
	if !containsFold(pkt.TCP.Payload, m.needle) {
		return netem.Pass
	}
	m.Hits++
	censor.InjectRSTPair(pipe, pkt, dir)
	return netem.Drop
}

// foldBytes lowercases an ASCII needle once at construction.
func foldBytes(s string) []byte {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return b
}

// containsFold reports whether the lowercase needle appears in hay under
// ASCII case folding, without allocating.
func containsFold(hay, needle []byte) bool {
	if len(needle) == 0 || len(hay) < len(needle) {
		return false
	}
	for i := 0; i+len(needle) <= len(hay); i++ {
		ok := true
		for j := 0; j < len(needle); j++ {
			c := hay[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != needle[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
