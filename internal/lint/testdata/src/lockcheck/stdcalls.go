// Cases read off the stdlib call table: a lock leak on an embedded mutex or
// a re-entrant call through one, a stdlib blocking call under a lock, and a
// blocking plain-function callee are flagged; a balanced embedded mutex, a
// sleep after the unlock, and a wait handed to a goroutine are not.

package lockcheck

import (
	"sync"
	"time"
)

// embedded holds its mutex by embedding: e.Lock() is (sync.Mutex).Lock on
// the embedding value.
type embedded struct {
	sync.Mutex
	n int
}

func badEmbeddedLeak(e *embedded, b bool) int {
	e.Lock() // want `e\.Lock\(\) may still be held at a return or panic`
	if b {
		return 0
	}
	e.Unlock()
	return e.n
}

// okEmbedded releases the embedded mutex on every path.
func okEmbedded(e *embedded, b bool) int {
	e.Lock()
	if b {
		e.Unlock()
		return 0
	}
	n := e.n
	e.Unlock()
	return n
}

func (e *embedded) get() int {
	e.Lock()
	defer e.Unlock()
	return e.n
}

func (e *embedded) badReentrant() int {
	e.Lock()
	defer e.Unlock()
	return e.get() // want `call to get while holding e: the callee locks the same mutex \(self-deadlock\)`
}

func badSleep(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding c\.mu blocks under the lock`
}

// okSleepAfterUnlock sleeps once the lock is released.
func okSleepAfterUnlock(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// wait is a plain function that blocks.
func wait(wg *sync.WaitGroup) { wg.Wait() }

func badWaitHelper(c *counter, wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wait(wg) // want `call to lockcheck\.wait while holding c\.mu may block under the lock: \(sync\.WaitGroup\)\.Wait`
}

// okWaitAsync hands the wait to a goroutine: the caller does not block.
func okWaitAsync(c *counter, wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go wait(wg)
}
