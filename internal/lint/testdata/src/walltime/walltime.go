// Package walltime seeds every wall-clock pattern the analyzer must catch,
// including a regression fixture reproducing the real bug tspu-vet was built
// to prevent: tspusim.Run stamping wall-clock elapsed time into what is
// documented as deterministic experiment output.
package walltime

import (
	"fmt"
	"time"
	wall "time"
)

// runExperiment reproduces the original tspusim.go violation: the returned
// string embeds elapsed wall time, so two runs of the same seed differ.
func runExperiment(run func() string) string {
	start := time.Now() // want `time\.Now is wall-clock time`
	out := run()
	return fmt.Sprintf("[%.2fs]\n%s", time.Since(start).Seconds(), out) // want `time\.Since is wall-clock time`
}

func sleeps() {
	time.Sleep(time.Second) // want `time\.Sleep is wall-clock time`
}

func timers() {
	t := time.NewTimer(time.Second) // want `time\.NewTimer is wall-clock time`
	defer t.Stop()                  // methods on an existing timer are not re-flagged
	<-time.After(time.Minute)       // want `time\.After is wall-clock time`
	time.AfterFunc(time.Second, func() {}) // want `time\.AfterFunc is wall-clock time`
}

// renamed imports must not hide the clock.
func renamed() wall.Time {
	return wall.Now() // want `time\.Now is wall-clock time`
}

// referencing the function without calling it is just as nondeterministic.
var clock func() time.Time = time.Now // want `time\.Now is wall-clock time`

// legal: durations, conversions, and arithmetic are pure.
func legal(d time.Duration) time.Duration {
	parsed, _ := time.ParseDuration("30s")
	return d + parsed + 3*time.Second
}

// shadowed: a local identifier named time is not the time package.
type fakeClock struct{}

func (fakeClock) Now() int { return 0 }

func shadowed() int {
	var time fakeClock
	return time.Now()
}

//tspuvet:impure fixture: a stamp binds only to a function declaration // want `//tspuvet:impure must be the doc comment of a function declaration`
var stamped = 0

//tspuvet:impure // want `//tspuvet:impure on walltime.unexplained is missing a reason: declaring a function off the determinism contract must explain itself`
func unexplained() {}
