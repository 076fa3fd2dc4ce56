// An aliased import does not hide a call that never returns: xos.Exit is
// os.Exit, so the branch that does not lock ends there, and the guarded
// read after the branch is reached only with the lock held.

package lockcheck

import (
	xos "os"
	"sync"
)

type exiter struct {
	mu sync.Mutex
	n  int // guarded by: mu
}

func okAliasedExit(x *exiter, bad bool) int {
	if bad {
		xos.Exit(1)
	} else {
		x.mu.Lock()
	}
	n := x.n
	x.mu.Unlock()
	return n
}
