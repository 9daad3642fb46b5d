// Package synccheck exercises the two worker-pool synchronization bugs the
// synccheck analyzer forbids, plus the legal shapes on either side of each
// rule: Add before go, and selects that either have a default or only
// receive.
package synccheck

import "sync"

type pool struct {
	wg    sync.WaitGroup
	tasks chan int
}

func addInsideGoroutine(p *pool) {
	go func() {
		p.wg.Add(1) // want `WaitGroup.Add inside the spawned goroutine races Wait`
		defer p.wg.Done()
	}()
	p.wg.Add(1) // Add before the go statement: legal
	go func() {
		defer p.wg.Done()
		go func() {
			// A nested goroutine is analyzed at its own go statement, not
			// attributed to the outer one.
			work()
		}()
	}()
	p.wg.Wait()
}

func selects(p *pool, done chan struct{}) {
	select {
	case p.tasks <- 1: // want `channel send in select without default can block a pooled worker forever`
	case <-done:
	}
	select {
	case p.tasks <- 2: // default makes the send droppable: legal
	default:
	}
	select {
	case v := <-p.tasks: // receive-only select blocks by design: legal
		_ = v
	case <-done:
	}
}

func work() {}
