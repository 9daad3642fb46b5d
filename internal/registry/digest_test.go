package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"tspusim/internal/sim"
	"tspusim/internal/workload"
)

// namesDigest is the SHA-256 of the seed-1, default-size generated names and
// registry entries. The lab build draws these from the experiment RNG, so
// any change to the name format or to the order of RNG draws moves every
// downstream experiment: the digest pins both.
const namesDigest = "bf4a82a637f1e47adf5f46c427c74b623958bdfd93ccb40ace26a280dfda120f"

func TestGeneratedNamesDigest(t *testing.T) {
	h := sha256.New()
	rng := sim.NewRand(1)
	writeDomains := func(ds []workload.Domain) {
		for _, d := range ds {
			fmt.Fprintf(h, "%s\n", d.Name)
		}
	}
	writeDomains(workload.GenTranco(rng, workload.TrancoOptions{}))
	reg := workload.GenRegistry(rng, workload.RegistryOptions{})
	writeDomains(reg)
	for _, e := range FromWorkload(rng, reg) {
		fmt.Fprintf(h, "%s|%s|%s|%v\n", e.Order, e.URL, e.Added.Format("2006-01-02"), e.IPs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != namesDigest {
		t.Fatalf("generated names digest = %s, want %s", got, namesDigest)
	}
}
