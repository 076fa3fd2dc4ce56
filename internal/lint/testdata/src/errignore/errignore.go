// Fixture for the errignore analyzer: bare call statements dropping an
// error are flagged; explicit `_ =`, defers, and never-failing writers are
// not.
package errignore

import (
	"fmt"
	"os"
	"strings"
)

func mayFail() error { return nil }

func twoResults() (int, error) { return 0, nil }

func noError() int { return 0 }

func bad(f *os.File) {
	mayFail()
	twoResults()
	f.Close()
}

func good(f *os.File) string {
	_ = mayFail()   // explicit drop: reviewed decision
	defer f.Close() // deferred close: out of scope
	noError()
	var b strings.Builder
	b.WriteString("x")       // strings.Builder never fails
	fmt.Fprintf(&b, "%d", 1) // fmt to a never-failing writer
	fmt.Println("done")
	fmt.Fprintln(os.Stderr, "warn")
	if err := mayFail(); err != nil {
		return err.Error()
	}
	return b.String()
}

func ignored() {
	mayFail() //rexlint:ignore errignore best-effort cleanup
}

// journal mimics obs.Journal: Close/Err/Flush report a sticky error
// accumulated by earlier operations, so discarding them loses failures.
type journal struct{ err error }

func (j *journal) Close() error { return j.err }
func (j *journal) Err() error   { return j.err }
func (j *journal) Flush() error { return j.err }
func (j *journal) reset() error { return nil }

func stickyBad(j *journal) {
	j.Close()
	_ = j.Err()
	defer j.Flush()
}

// stickyGood folds the sticky close error into the named return; the
// non-sticky reset keeps the relaxed `_ =` rule.
func stickyGood(j *journal) (err error) {
	defer func() {
		if cerr := j.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	_ = j.reset() // near miss: reset is not a sticky method
	return nil
}
