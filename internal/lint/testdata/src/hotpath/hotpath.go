// Package hotpath exercises every construct the hotpath analyzer forbids in
// functions reachable from a //tspuvet:hotpath root, plus the shapes that
// must stay legal: coldpath cuts, map-key string conversions, scratch-buffer
// appends, and code that is simply unreachable from any root.
package hotpath

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

type Flow struct{ id int }

type Device struct {
	table   map[string]*Flow
	scratch []byte
	sink    any
	count   int
}

//tspuvet:hotpath
func (d *Device) Handle(b []byte) int {
	n := d.observe(b)
	d.reference(b)
	return n + helper(n)
}

// observe is reachable one hop from the root.
func (d *Device) observe(b []byte) int {
	if d.table[string(b)] != nil { // map-key conversion is elided by the compiler: legal
		d.count++
	}
	s := string(b)                        // want `string\(bytes\) conversion copies.*reached via Device.Handle → Device.observe`
	msg := fmt.Sprintf("flow %s", s)      // want `fmt.Sprintf allocates on the hot path`
	d.scratch = append(d.scratch[:0], b...) // reused scratch buffer: legal
	_ = msg
	return len(s)
}

// helper is reachable two hops from the root via Handle's return expression.
func helper(n int) int {
	var fresh []int
	for i := 0; i < n; i++ {
		fresh = append(fresh, i) // want `append grows fresh from zero capacity`
		defer cleanup()          // want `defer inside a loop`
	}
	buf := make([]byte, n) // want `make on the hot path allocates`
	_ = buf
	return len(fresh)
}

// reference is the retained slow-path oracle; the cut keeps its allocations
// off the contract.
//
//tspuvet:coldpath reference implementation kept as the equivalence oracle
func (d *Device) reference(b []byte) string {
	lower := strings.ToLower(string(b)) // legal: coldpath
	return fmt.Sprintf("%q", lower)     // legal: coldpath
}

//tspuvet:coldpath // want `//tspuvet:coldpath on Device.sweep is missing a reason`
func (d *Device) sweep() {}

//tspuvet:hotpath
func Mixed(vals []int, ch chan int, d *Device) *Flow {
	for k := range d.table { // want `map iteration on the hot path`
		_ = k
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] }) // want `sort.Slice allocates`
	take(vals[0])                                                     // want `int value passed as interface boxes`
	cb(func() { _ = vals })                                           // want `closure passed on the hot path`
	go cleanup()                                                      // want `go statement on the hot path`
	ch <- 1                                                           // want `channel send on the hot path`
	d.sink = d.observe                                                // want `method value d.observe stored on the hot path`
	d.sink = vals[0]                                                  // want `int value stored as interface boxes`
	label := "a" + errs().Error()                                     // want `string concatenation allocates`
	label += "b"                                                      // want `string concatenation allocates`
	_ = label
	n := new(Flow) // want `new\(T\) on the hot path allocates`
	_ = n
	return &Flow{id: 1} // want `&composite literal returned on the hot path escapes`
}

// errs is reachable from Mixed.
func errs() error {
	return errors.New("boom") // want `errors.New allocates on the hot path \(reached via Mixed → errs\)`
}

// unreachable is not reachable from any root: anything goes.
func unreachable() string {
	return fmt.Sprintf("%d", len("free"))
}

// cleanup is reachable (from helper's defer and Mixed's go) but clean.
func cleanup() {}

// take and cb are reachable interface/function sinks, themselves clean.
func take(x any)    { _ = x }
func cb(f func())   { _ = f }

// allowed shows line-level suppression surviving in analyzer output: the
// raw diagnostic is still produced here (suppression happens in the driver),
// so the fixture wants it like any other.
//
//tspuvet:hotpath
func allowed() string {
	return fmt.Sprintf("ok") //tspuvet:allow hotpath: fixture exercises the raw diagnostic // want `fmt.Sprintf allocates`
}

//tspuvet:hotpath // want `must be the doc comment of a function declaration`
var notAFunc = 0

type misplaced struct {
	//tspuvet:coldpath fields cannot be cold // want `must be the doc comment of a function declaration`
	f int
}

// both carries contradictory markers; the analyzer keeps it a root.
//
//tspuvet:hotpath
//tspuvet:coldpath contradicts the root marker above
func both() {} // want `both is marked both //tspuvet:hotpath and //tspuvet:coldpath; pick one`
