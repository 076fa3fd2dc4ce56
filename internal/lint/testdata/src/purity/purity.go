// Fixture for the purity analyzer: //rexlint:pure functions must classify
// as pure on the summary lattice. Reading state and allocating fresh
// values are allowed; mutation, package effects, wall-clock reads, and
// effects hidden behind callees are not.
package purity

import "time"

type counter struct{ n int }

var total int

//rexlint:pure
func (c *counter) bump() {
	c.n++
}

//rexlint:pure
func addTotal(v int) {
	total += v
}

//rexlint:pure
func writesParam(xs []int) {
	xs[0] = 1
}

func readClock() int64 { return time.Now().UnixNano() }

//rexlint:pure
func hidesClock() int64 {
	return readClock()
}

// mutator is impure; pureCaller reads the mutation one hop deep.
func (c *counter) mutator() { c.n = 0 }

//rexlint:pure
func pureCaller(c *counter) {
	c.mutator()
}

// --- near-misses: all of the below must stay silent ---

// get only reads its receiver: reads-receiver is within the pure contract.
//
//rexlint:pure
func (c *counter) get() int {
	return c.n
}

// fresh allocates and returns a new value: allocation alone is pure.
//
//rexlint:pure
func fresh(n int) []int {
	return make([]int, n)
}

// sumOf reads a parameter without writing through it.
//
//rexlint:pure
func sumOf(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}
