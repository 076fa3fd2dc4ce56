// Fixture for the lockcheck analyzer: guarded-field access without the
// mutex, lock leaks on some path, writes under RLock, blocking under a
// lock, and self-deadlocking re-entrant calls are flagged; constructors,
// //rexlint:holds callees, and select-with-default are not.
package lockcheck

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by: mu
}

type rwstore struct {
	mu    sync.RWMutex
	m     map[string]int // guarded by: mu
	stamp int            // guarded by: mu
}

func bad(c *counter) {
	c.n++ // want `access to c\.n \(guarded by mu\) without holding c\.mu on every path`
}

func badLeak(c *counter, ok bool) {
	c.mu.Lock() // want `c\.mu\.Lock\(\) may still be held at a return or panic`
	if ok {
		return
	}
	c.mu.Unlock()
}

func badRLockWrite(s *rwstore) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.stamp = 1  // want `write to s\.stamp while s\.mu is only read-locked`
	s.m["k"] = 1 // want `write to s\.m while s\.mu is only read-locked`
	_ = s.m["k"] // read under RLock: fine
	_ = s.stamp  // read under RLock: fine
}

func badBlocking(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch <- c.n // want `channel send while holding c\.mu may block under the lock`
}

func badWait(c *counter, wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want `sync\.WaitGroup\.Wait while holding c\.mu blocks under the lock`
}

func (c *counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) badReentrant() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.get() // want `call to get while holding c\.mu: the callee locks the same mutex \(self-deadlock\)`
}

// okConstructor fills guarded fields on a value nothing else can see yet.
func okConstructor() *counter {
	c := &counter{}
	c.n = 41
	c.n++
	return c
}

// incLocked runs with the lock already held by the caller.
//
//rexlint:holds c.mu
func (c *counter) incLocked() {
	c.n++
}

// okBothPaths releases on every path; the access is under the lock on
// every path.
func okBothPaths(c *counter, ok bool) {
	c.mu.Lock()
	if ok {
		c.n = 2
		c.mu.Unlock()
		return
	}
	c.n = 3
	c.mu.Unlock()
}

// okNonBlocking: a send inside a select with a default clause cannot
// block.
func okNonBlocking(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case ch <- c.n:
	default:
	}
}

// okRead holds the read lock for reads only.
func okRead(s *rwstore) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m) + s.stamp
}

type badAnnot struct {
	// guarded by: nomu
	x int // want `guarded by: nomu names no sibling sync\.Mutex/RWMutex field`
}

// badTwoLocks blocks while holding two locks: the diagnostic names the
// lexicographically smaller path, whatever order the held-lock map yields.
func badTwoLocks(a, b *counter, ch chan int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	ch <- 1 // want `channel send while holding a\.mu may block under the lock`
}

type probe struct {
	mu   sync.Mutex
	n    int // guarded by: mu
	ch   chan int
	done chan struct{}
}

// tryNotify's send is in a select with a default clause: it cannot block,
// so calling tryNotify under the lock is fine.
func (p *probe) tryNotify() {
	select {
	case p.ch <- 1:
	default:
	}
}

func (p *probe) bump() {
	p.mu.Lock()
	p.n++
	p.tryNotify()
	p.mu.Unlock()
}

// notify's select has no default clause: it may block.
func (p *probe) notify() {
	select {
	case p.ch <- 1:
	case <-p.done:
	}
}

func (p *probe) bumpAndNotify() {
	p.mu.Lock()
	p.n++
	p.notify() // want `call to \(lockcheck\.probe\)\.notify while holding p\.mu may block under the lock: channel send`
	p.mu.Unlock()
}

// badWaitInRange: the loop head of a range statement carries the whole
// statement, but its body is read once, so the Wait is reported once.
func badWaitInRange(c *counter, wg *sync.WaitGroup, xs []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for range xs {
		wg.Wait() // want `sync\.WaitGroup\.Wait while holding c\.mu blocks under the lock`
	}
}

// lockedInRange locks around each increment in a range body: that access
// holds the mutex on every path, the decrement after the loop does not.
func lockedInRange(c *counter, xs []int) {
	for range xs {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	c.n-- // want `access to c\.n \(guarded by mu\) without holding c\.mu on every path`
}
