package mapreduce

import (
	"runtime"
	"sync"
)

// cpu bounds the compute of every job in the process, the way a node's slot
// count bounds its tasks: one token per GOMAXPROCS. Every attempt that runs
// in this process — in-process phases, a cluster worker's leased attempts,
// concurrent service queries alike — blocks for a token before it computes
// and holds it until it returns. The fan-outs inside an attempt (the spill
// worker, finalize's per-partition merges, validateSegments' coded scans)
// never block: they take a spare token if one is free and otherwise run
// inline on the attempt's own goroutine. A holder therefore never waits for
// a second token, so the pool cannot deadlock, and at most GOMAXPROCS
// goroutines compute at once however many attempts and queries are live.
//
// At Parallelism 1 the one running attempt leaves the other tokens to its
// helpers, so spills overlap collection and partitions merge side by side.
// At Parallelism GOMAXPROCS the attempts take every token and the helpers
// run inline, which is also what keeps an attempt at one spill buffer set.
var cpu cpuPool

// cpuPool is a counting semaphore whose size is GOMAXPROCS at each grant
// (tests that sweep GOMAXPROCS see the pool follow), with FIFO hand-off to
// blocked acquirers.
type cpuPool struct {
	mu      sync.Mutex
	held    int
	waiters []chan struct{} // blocked acquirers, oldest first
}

// acquire blocks for a token until one is granted (true) or done closes
// (false). A nil done never closes.
func (p *cpuPool) acquire(done <-chan struct{}) bool {
	p.mu.Lock()
	if len(p.waiters) == 0 && p.held < runtime.GOMAXPROCS(0) {
		p.held++
		p.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	p.waiters = append(p.waiters, ch)
	p.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-done:
	}
	p.mu.Lock()
	for i, w := range p.waiters {
		if w == ch {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			p.mu.Unlock()
			return false
		}
	}
	p.mu.Unlock()
	// The grant raced the cancel: hand the token on.
	p.release()
	return false
}

// tryAcquire takes a spare token without blocking. It never jumps the
// queue: while an attempt waits for a token, helpers run inline.
func (p *cpuPool) tryAcquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.waiters) > 0 || p.held >= runtime.GOMAXPROCS(0) {
		return false
	}
	p.held++
	return true
}

// release returns a token, granting it to the oldest waiter if there is one.
func (p *cpuPool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held--
	for len(p.waiters) > 0 && p.held < runtime.GOMAXPROCS(0) {
		p.held++
		close(p.waiters[0])
		p.waiters = p.waiters[1:]
	}
}

// fork runs fn on a helper goroutine holding a spare token, or inline on the
// caller's goroutine when none is free; wg waits for the helper.
func (p *cpuPool) fork(wg *sync.WaitGroup, fn func()) {
	if !p.tryAcquire() {
		fn()
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer p.release()
		fn()
	}()
}
