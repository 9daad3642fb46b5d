package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracing from outside the program: the benchmark's own code wraps each call
// into a layer's public functions in a span. Spans are aggregated in memory
// by (name, parent) — a per-packet span is one counter, not one record per
// packet — and written out when the run ends.

// span aggregates every timed call of one name under one parent.
type span struct {
	name, parent string
	calls        int64
	total        time.Duration
	// children is the part of total that child spans cover.
	children time.Duration
}

// add records one call of duration d and charges it to parent's children.
func (s *span) add(d time.Duration, parent *span) {
	s.calls++
	s.total += d
	if parent != nil {
		parent.children += d
	}
}

// lap records a call that started at t and ended now, and returns now, so
// back-to-back spans share one clock read.
func (s *span) lap(t time.Time, parent *span) time.Time {
	now := time.Now()
	s.add(now.Sub(t), parent)
	return now
}

// self is the span's duration minus its children.
func (s *span) self() time.Duration { return s.total - s.children }

// perCall is the mean total time per call in nanoseconds.
func (s *span) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls)
}

// tracer holds one run's (or one fleet job's) spans and counters. Its methods
// are safe for one goroutine at a time; merge takes the lock so fleet jobs
// can fold their job-local tracers into the run's.
type tracer struct {
	mu       sync.Mutex
	spans    map[[2]string]*span
	order    [][2]string
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{spans: map[[2]string]*span{}, counters: map[string]int64{}}
}

// span returns the aggregate for name under parent, creating it on first use.
// Hot loops fetch it once and call add on the pointer.
func (t *tracer) span(name, parent string) *span {
	k := [2]string{name, parent}
	s, ok := t.spans[k]
	if !ok {
		s = &span{name: name, parent: parent}
		t.spans[k] = s
		t.order = append(t.order, k)
	}
	return s
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) { t.counters[name] += n }

// scale multiplies every span by r. Spans are timed on the wall clock; the
// caller scales them by its thread's CPU-to-wall ratio over the same stretch,
// so time the thread spent descheduled by the host is not charged to a layer.
func (t *tracer) scale(r float64) {
	for _, s := range t.spans {
		s.total = time.Duration(float64(s.total) * r)
		s.children = time.Duration(float64(s.children) * r)
	}
}

// merge folds o into t.
func (t *tracer) merge(o *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range o.order {
		src := o.spans[k]
		dst := t.span(k[0], k[1])
		dst.calls += src.calls
		dst.total += src.total
		dst.children += src.children
	}
	for name, n := range o.counters {
		t.counters[name] += n
	}
}

// write prints every span and counter.
func (t *tracer) write(w io.Writer) {
	fmt.Fprintf(w, "%-28s %-20s %12s %12s %12s %10s\n", "span", "parent", "calls", "total_ms", "self_ms", "ns/call")
	for _, k := range t.order {
		s := t.spans[k]
		fmt.Fprintf(w, "%-28s %-20s %12d %12.3f %12.3f %10.1f\n", s.name, s.parent, s.calls,
			float64(s.total)/1e6, float64(s.self())/1e6, s.perCall())
	}
	names := make([]string, 0, len(t.counters))
	for n := range t.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "counter %-28s %d\n", n, t.counters[n])
	}
}

// ledgerRow is one layer's share of the CPU per op: cost per unit of work
// times units of work per op.
type ledgerRow struct {
	layer string
	cost  float64 // ns per unit
	count float64 // units per op
	// detail rows break a parent row down; they are not summed again.
	detail bool
}

// ledger is the attribution table of a traced run.
type ledger struct {
	workload, op string
	rows         []ledgerRow
	// traced and untraced are the process CPU per op, in ns, of the traced
	// phase and of the untraced phase that preceded it.
	traced, untraced float64
}

func (l *ledger) add(layer string, cost, count float64) {
	l.rows = append(l.rows, ledgerRow{layer: layer, cost: cost, count: count})
}

func (l *ledger) detail(layer string, cost, count float64) {
	l.rows = append(l.rows, ledgerRow{layer: layer, cost: cost, count: count, detail: true})
}

// explained sums the non-detail rows, in ns per op.
func (l *ledger) explained() float64 {
	sum := 0.0
	for _, r := range l.rows {
		if !r.detail {
			sum += r.cost * r.count
		}
	}
	return sum
}

// residual is the traced CPU per op that no row explains.
func (l *ledger) residual() float64 { return l.traced - l.explained() }

// overhead is what tracing added to the CPU per op.
func (l *ledger) overhead() float64 { return l.traced - l.untraced }

func (l *ledger) residualShare() float64 { return l.residual() / l.traced }

func (l *ledger) overheadShare() float64 { return l.overhead() / l.untraced }

// write prints the table.
func (l *ledger) write(w io.Writer) {
	fmt.Fprintf(w, "attribution: %s, CPU per %s\n", l.workload, l.op)
	fmt.Fprintf(w, "  %-34s %14s %14s %14s %8s\n", "layer", "cost_ns", "count/op", "ns/op", "share")
	for _, r := range l.rows {
		name := r.layer
		if r.detail {
			name = "  of which " + name
		}
		fmt.Fprintf(w, "  %-34s %14.2f %14.6f %14.2f %7.1f%%\n", name, r.cost, r.count, r.cost*r.count,
			100*r.cost*r.count/l.traced)
	}
	row := func(name string, v float64) {
		fmt.Fprintf(w, "  %-34s %14s %14s %14.2f %7.1f%%\n", name, "", "", v, 100*v/l.traced)
	}
	row("explained", l.explained())
	row("residual (no layer explains)", l.residual())
	row("traced CPU/op", l.traced)
	row("tracing overhead", l.overhead())
	row("untraced CPU/op", l.untraced)
}
