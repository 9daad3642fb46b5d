package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// blockingPCAPSHA256 is the digest of the seed-1 Fig. 2 capture. It pins the
// bytes of experiment traffic itself — headers, IP IDs, sequence numbers,
// ClientHello random — which the text goldens only see through their
// rendering. A change that makes a packet field nondeterministic (say, a
// ClientHello random drawn from crypto/rand) or silently reshapes the
// exchange fails here.
const blockingPCAPSHA256 = "129e6d3a6f15929e0834ef542754ad695a2a54170cba01b27210127814543fab"

func TestBlockingPCAPDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig2.pcap")
	if err := writeBlockingPCAP(path, 1); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != blockingPCAPSHA256 {
		t.Fatalf("seed-1 blocking capture drifted: sha256 %s, want %s (%d bytes)", got, blockingPCAPSHA256, len(b))
	}
}
