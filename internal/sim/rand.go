package sim

// Rand is a small, self-contained deterministic random source
// (splitmix64-seeded xoshiro256**). We implement it directly rather than
// relying on math/rand so that experiment outputs are stable across Go
// releases: EXPERIMENTS.md records numbers that must be regenerable.
type Rand struct {
	s [4]uint64
}

// NewRand returns a Rand seeded from seed via splitmix64, as recommended by
// the xoshiro authors to avoid correlated low-entropy states.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Fork derives an independent stream labelled by name. Experiments fork the
// lab RNG per subsystem so adding randomness in one place does not perturb
// another ("random stability").
func (r *Rand) Fork(name string) *Rand {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRand(r.Uint64() ^ h)
}

// StreamSeed derives a labelled child seed as a pure function of
// (base, label). Unlike Fork it consumes no generator state, so derivation
// order, interleaving, and concurrency cannot perturb sibling streams: the
// fleet orchestrator relies on this to hand every (experiment, seed, shard)
// job an identical seed regardless of worker count or completion order.
func StreamSeed(base uint64, label string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Two splitmix64 finalizer rounds decorrelate (base, label) pairs that
	// differ in only a few bits, mirroring NewRand's seeding discipline.
	z := base ^ h
	for i := 0; i < 2; i++ {
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi] inclusive. Panics if hi < lo.
func (r *Rand) IntRange(lo, hi int) int {
	if hi < lo {
		panic("sim: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly random element of xs. Panics on empty input.
func Pick[T any](r *Rand, xs []T) T {
	if len(xs) == 0 {
		panic("sim: Pick from empty slice")
	}
	return xs[r.Intn(len(xs))]
}

// Sample returns k distinct elements sampled without replacement. If
// k >= len(xs) a shuffled copy of xs is returned. It shuffles a permutation
// of indices, with the draws a shuffle of xs itself would take, and copies
// only the k elements it returns.
func Sample[T any](r *Rand, xs []T, k int) []T {
	k = min(k, len(xs))
	idx := make([]int32, len(xs))
	for i := range idx {
		idx[i] = int32(i)
	}
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	out := make([]T, k)
	for i := range out {
		out[i] = xs[idx[i]]
	}
	return out
}
