package tspu

import "time"

// tokenBucket implements the SNI-III traffic policer: packets whose payload
// exceeds the accumulated byte budget are dropped, not queued — the paper
// identifies the same policing (not shaping) mechanism as the 2021 Twitter
// throttling, with the rate lowered to 600-700 bytes per second (§5.2).
// Buckets hang off a flowEntry's blockState, so they inherit the entry's
// lane ownership.
type tokenBucket struct {
	rate   float64 // bytes per second
	burst  float64 // bucket capacity in bytes
	tokens float64
	last   time.Duration
}

// newTokenBucket makes a flow's bucket, once per throttled-flow trigger,
// not per packet.
func newTokenBucket(rateBps int, burst int, now time.Duration) *tokenBucket {
	if rateBps <= 0 {
		rateBps = 650
	}
	if burst <= 0 {
		// One MSS of headroom so handshakes pass, scaled up for higher
		// policing rates (the 2021 130 kbps policy must admit full-sized
		// packets; a burst below the packet size starves the flow entirely).
		burst = 1460
		if rateBps/4 > burst {
			burst = rateBps / 4
		}
	}
	return &tokenBucket{
		rate:   float64(rateBps),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   now,
	}
}

// admit consumes n bytes if available and reports whether the packet
// conforms to the rate. Zero-length packets (pure ACKs) always conform.
func (tb *tokenBucket) admit(n int, now time.Duration) bool {
	if now > tb.last {
		tb.tokens += tb.rate * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	if n == 0 {
		return true
	}
	if float64(n) <= tb.tokens {
		tb.tokens -= float64(n)
		return true
	}
	return false
}
