package tlsx

import "encoding/binary"

// ExtractSNI is the allocation-free fast path of ParseClientHello: it walks
// the same record, handshake, and extension type/length fields and returns
// the server_name bytes as a subslice of b, without building an Info, error
// values, or ALPN strings. Callers must not mutate the returned slice — it
// aliases the input.
//
// The contract, pinned by TestExtractSNIEquivalence and FuzzSNIExtract, is
// exact equivalence with the structural parser the TSPU device model used
// before: ExtractSNI(b) reports found exactly when ParseClientHello(b)
// returns a nil error and a non-empty ServerName, and the returned bytes
// equal that ServerName. In particular a malformation anywhere in the
// extension list — even after a well-formed server_name extension — yields
// not-found, because the reference parser fails the whole parse.
func ExtractSNI(b []byte) (sni []byte, found bool) {
	if len(b) < 5 || b[0] != RecordTypeHandshake {
		return nil, false
	}
	recLen := int(binary.BigEndian.Uint16(b[3:5]))
	rec := b[5:]
	if recLen > len(rec) {
		return nil, false
	}
	rec = rec[:recLen]
	if len(rec) < 4 || rec[0] != HandshakeTypeClientHello {
		return nil, false
	}
	hsLen := int(rec[1])<<16 | int(rec[2])<<8 | int(rec[3])
	body := rec[4:]
	if hsLen > len(body) {
		return nil, false
	}
	body = body[:hsLen]

	// Fixed fields: version(2) + random(32) + session_id(1+n) +
	// cipher_suites(2+n) + compression(1+n) + extensions_len(2).
	off := 2 + 32
	if off+1 > len(body) {
		return nil, false
	}
	off += 1 + int(body[off])
	if off+2 > len(body) {
		return nil, false
	}
	csLen := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	if csLen%2 != 0 || off+csLen+1 > len(body) {
		return nil, false
	}
	off += csLen
	off += 1 + int(body[off])
	if off+2 > len(body) {
		return nil, false
	}
	extLen := int(binary.BigEndian.Uint16(body[off : off+2]))
	off += 2
	if off+extLen > len(body) {
		return nil, false
	}
	exts := body[off : off+extLen]

	eo := 0
	for eo+4 <= len(exts) {
		typ := binary.BigEndian.Uint16(exts[eo : eo+2])
		elen := int(binary.BigEndian.Uint16(exts[eo+2 : eo+4]))
		if eo+4+elen > len(exts) {
			return nil, false
		}
		data := exts[eo+4 : eo+4+elen]
		switch typ {
		case ExtensionServerName:
			name, ok := extractSNIExt(data)
			if !ok {
				return nil, false
			}
			sni = name // last extension wins, matching parseCH
		case ExtensionALPN:
			// Validated (a malformed ALPN fails the reference parse) but
			// never materialized.
			if !validALPNExt(data) {
				return nil, false
			}
		}
		eo += 4 + elen
	}
	if eo != len(exts) {
		return nil, false
	}
	if len(sni) == 0 {
		return nil, false
	}
	return sni, true
}

// extractSNIExt mirrors parseSNIExt without allocating.
func extractSNIExt(data []byte) ([]byte, bool) {
	if len(data) < 2 {
		return nil, false
	}
	listLen := int(binary.BigEndian.Uint16(data[:2]))
	if 2+listLen > len(data) {
		return nil, false
	}
	p := data[2 : 2+listLen]
	if len(p) < 3 || p[0] != 0 {
		return nil, false
	}
	n := int(binary.BigEndian.Uint16(p[1:3]))
	if 3+n > len(p) {
		return nil, false
	}
	return p[3 : 3+n], true
}

// validALPNExt mirrors parseALPNExt's structural checks without building the
// protocol strings.
func validALPNExt(data []byte) bool {
	if len(data) < 2 {
		return false
	}
	listLen := int(binary.BigEndian.Uint16(data[:2]))
	if 2+listLen > len(data) {
		return false
	}
	p := data[2 : 2+listLen]
	for len(p) > 0 {
		n := int(p[0])
		if 1+n > len(p) {
			return false
		}
		p = p[1+n:]
	}
	return true
}
