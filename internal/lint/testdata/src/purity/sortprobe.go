// sort.Sort calls the Len, Less and Swap methods of the value it sorts, so
// a //rexlint:pure function that sorts inherits their effects. Here Less
// counts its comparisons in a package variable. sortNames comes first in
// node order, so its summary is complete only if the fixpoint revisits it
// when the summary of Less grows.

package purity

import "sort"

//rexlint:pure
func sortNames(xs []string) {
	sort.Sort(byName(xs))
}

type byName []string

func (b byName) Len() int      { return len(b) }
func (b byName) Swap(i, j int) { b[i], b[j] = b[j], b[i] }

func (b byName) Less(i, j int) bool {
	countComparison()
	return b[i] < b[j]
}

var comparisons int

func countComparison() { comparisons++ }
