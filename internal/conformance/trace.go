package conformance

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tspusim/internal/packet"
)

// traceMagic is the first line of every serialized trace file.
const traceMagic = "tspu-conformance-trace v1"

// Marshal renders the trace in the line-based text format golden files use.
// The format is stable and human-editable so counterexamples can be replayed
// and tweaked by hand (see EXPERIMENTS.md).
func (t *Trace) Marshal() string {
	var b strings.Builder
	b.WriteString(traceMagic + "\n")
	fmt.Fprintf(&b, "seed 0x%x\n", t.Seed)
	for _, s := range t.Steps {
		b.WriteString(s.String() + "\n")
	}
	return b.String()
}

// String renders one step as a trace-file line.
func (s Step) String() string {
	dir := "R"
	if s.Local {
		dir = "L"
	}
	switch s.Kind {
	case StepTCP:
		line := fmt.Sprintf("tcp %s flow=%d flags=0x%02x", dir, s.Flow, uint8(s.Flags))
		if s.CH != CHNone {
			line += fmt.Sprintf(" ch=%s:%s", chModeName(s.CH), s.Domain)
		} else if s.DataLen > 0 {
			line += fmt.Sprintf(" data=%d", s.DataLen)
		}
		return line
	case StepUDP:
		return fmt.Sprintf("udp %s flow=%d kind=%s", dir, s.Flow, udpKindName(s.UDP))
	case StepICMP:
		if s.Blocked {
			return fmt.Sprintf("icmp %s blocked", dir)
		}
		return fmt.Sprintf("icmp %s normal", dir)
	case StepFrag:
		return fmt.Sprintf("frag %s id=%d off=%d len=%d mf=%d ttl=%d",
			dir, s.FragID, s.FragOff, s.FragLen, b2i(s.FragMF), s.TTL)
	case StepFragFlood:
		return fmt.Sprintf("fragflood %s id=%d count=%d ttl=%d", dir, s.FragID, s.Count, s.TTL)
	case StepAdvance:
		return fmt.Sprintf("adv %s", s.Adv)
	case StepMaxFlows:
		return fmt.Sprintf("maxflows %d", s.MaxFlows)
	case StepPolicy:
		switch s.Pol {
		case PolThrottle:
			return fmt.Sprintf("pol throttle %s", onOff(s.On))
		case PolQUICFilter:
			return fmt.Sprintf("pol quicfilter %s", onOff(s.On))
		case PolAddDomain:
			return fmt.Sprintf("pol add %s %s", s.Set, s.Domain)
		case PolRemoveDomain:
			return fmt.Sprintf("pol remove %s %s", s.Set, s.Domain)
		}
	}
	return "?"
}

// Parse reads a trace serialized by Marshal. Lines starting with '#' and
// blank lines are ignored, so golden files can carry commentary.
func Parse(text string) (*Trace, error) {
	lines := strings.Split(text, "\n")
	t := &Trace{}
	sawMagic := false
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sawMagic {
			if line != traceMagic {
				return nil, fmt.Errorf("conformance: line %d: missing %q header", ln+1, traceMagic)
			}
			sawMagic = true
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "seed" {
			if len(fields) < 2 {
				return nil, fmt.Errorf("conformance: line %d: missing seed value", ln+1)
			}
			v, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("conformance: line %d: bad seed: %v", ln+1, err)
			}
			t.Seed = v
			continue
		}
		s, err := parseStep(fields)
		if err != nil {
			return nil, fmt.Errorf("conformance: line %d: %v", ln+1, err)
		}
		t.Steps = append(t.Steps, s)
	}
	if !sawMagic {
		return nil, fmt.Errorf("conformance: empty trace")
	}
	return t, nil
}

func parseStep(fields []string) (Step, error) {
	var s Step
	kv := func(i int, key string) (string, error) {
		if i >= len(fields) {
			return "", fmt.Errorf("missing %s field", key)
		}
		v, ok := strings.CutPrefix(fields[i], key+"=")
		if !ok {
			return "", fmt.Errorf("expected %s=..., got %q", key, fields[i])
		}
		return v, nil
	}
	kvInt := func(i int, key string) (int, error) {
		v, err := kv(i, key)
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(v)
	}
	dir := func(i int) error {
		if i >= len(fields) {
			return fmt.Errorf("missing direction")
		}
		switch fields[i] {
		case "L":
			s.Local = true
		case "R":
			s.Local = false
		default:
			return fmt.Errorf("bad direction %q", fields[i])
		}
		return nil
	}

	switch fields[0] {
	case "tcp":
		s.Kind = StepTCP
		if err := dir(1); err != nil {
			return s, err
		}
		var err error
		if s.Flow, err = kvInt(2, "flow"); err != nil {
			return s, err
		}
		fl, err := kv(3, "flags")
		if err != nil {
			return s, err
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(fl, "0x"), 16, 8)
		if err != nil {
			return s, fmt.Errorf("bad flags: %v", err)
		}
		s.Flags = packet.TCPFlags(n)
		for _, f := range fields[4:] {
			switch {
			case strings.HasPrefix(f, "ch="):
				mode, dom, ok := strings.Cut(strings.TrimPrefix(f, "ch="), ":")
				if !ok {
					return s, fmt.Errorf("bad ch field %q", f)
				}
				m, err := chModeFromName(mode)
				if err != nil {
					return s, err
				}
				s.CH, s.Domain = m, dom
			case strings.HasPrefix(f, "data="):
				d, err := strconv.Atoi(strings.TrimPrefix(f, "data="))
				if err != nil {
					return s, err
				}
				s.DataLen = d
			default:
				return s, fmt.Errorf("unknown tcp field %q", f)
			}
		}
		return s, nil
	case "udp":
		s.Kind = StepUDP
		if err := dir(1); err != nil {
			return s, err
		}
		var err error
		if s.Flow, err = kvInt(2, "flow"); err != nil {
			return s, err
		}
		k, err := kv(3, "kind")
		if err != nil {
			return s, err
		}
		s.UDP, err = udpKindFromName(k)
		return s, err
	case "icmp":
		s.Kind = StepICMP
		if err := dir(1); err != nil {
			return s, err
		}
		if len(fields) < 3 {
			return s, fmt.Errorf("missing icmp target")
		}
		s.Blocked = fields[2] == "blocked"
		return s, nil
	case "frag":
		s.Kind = StepFrag
		if err := dir(1); err != nil {
			return s, err
		}
		var err error
		var id, mf, ttl int
		if id, err = kvInt(2, "id"); err != nil {
			return s, err
		}
		if s.FragOff, err = kvInt(3, "off"); err != nil {
			return s, err
		}
		if s.FragLen, err = kvInt(4, "len"); err != nil {
			return s, err
		}
		if mf, err = kvInt(5, "mf"); err != nil {
			return s, err
		}
		if ttl, err = kvInt(6, "ttl"); err != nil {
			return s, err
		}
		s.FragID, s.FragMF, s.TTL = uint16(id), mf != 0, uint8(ttl)
		return s, nil
	case "fragflood":
		s.Kind = StepFragFlood
		if err := dir(1); err != nil {
			return s, err
		}
		var err error
		var id, ttl int
		if id, err = kvInt(2, "id"); err != nil {
			return s, err
		}
		if s.Count, err = kvInt(3, "count"); err != nil {
			return s, err
		}
		if ttl, err = kvInt(4, "ttl"); err != nil {
			return s, err
		}
		s.FragID, s.TTL = uint16(id), uint8(ttl)
		return s, nil
	case "adv":
		s.Kind = StepAdvance
		if len(fields) < 2 {
			return s, fmt.Errorf("missing duration")
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return s, err
		}
		s.Adv = d
		return s, nil
	case "maxflows":
		s.Kind = StepMaxFlows
		if len(fields) < 2 {
			return s, fmt.Errorf("missing flow bound")
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return s, err
		}
		s.MaxFlows = n
		return s, nil
	case "pol":
		s.Kind = StepPolicy
		if len(fields) < 3 {
			return s, fmt.Errorf("short pol line")
		}
		switch fields[1] {
		case "throttle":
			s.Pol, s.On = PolThrottle, fields[2] == "on"
		case "quicfilter":
			s.Pol, s.On = PolQUICFilter, fields[2] == "on"
		case "add", "remove":
			if len(fields) < 4 {
				return s, fmt.Errorf("short pol add/remove line")
			}
			s.Pol = PolAddDomain
			if fields[1] == "remove" {
				s.Pol = PolRemoveDomain
			}
			s.Set, s.Domain = fields[2], fields[3]
		default:
			return s, fmt.Errorf("unknown pol op %q", fields[1])
		}
		return s, nil
	}
	return s, fmt.Errorf("unknown step kind %q", fields[0])
}

func chModeName(m CHMode) string {
	switch m {
	case CHPlain:
		return "plain"
	case CHPadded:
		return "padded"
	case CHPrepend:
		return "prepend"
	case CHECH:
		return "ech"
	}
	return "none"
}

func chModeFromName(s string) (CHMode, error) {
	switch s {
	case "plain":
		return CHPlain, nil
	case "padded":
		return CHPadded, nil
	case "prepend":
		return CHPrepend, nil
	case "ech":
		return CHECH, nil
	}
	return CHNone, fmt.Errorf("unknown ch mode %q", s)
}

func udpKindName(k UDPKind) string {
	switch k {
	case UDPQUICv1:
		return "quicv1"
	case UDPQUICv1Short:
		return "quicv1short"
	case UDPQUICDraft29:
		return "draft29"
	}
	return "small"
}

func udpKindFromName(s string) (UDPKind, error) {
	switch s {
	case "small":
		return UDPSmall, nil
	case "quicv1":
		return UDPQUICv1, nil
	case "quicv1short":
		return UDPQUICv1Short, nil
	case "draft29":
		return UDPQUICDraft29, nil
	}
	return UDPSmall, fmt.Errorf("unknown udp kind %q", s)
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
