// Fixture for the floateq analyzer: exact ==/!= between computed floats is
// flagged; constant sentinels, comparator literals, and integers are not.
package floateq

import "sort"

func bad(a, b float64) bool {
	return a == b
}

func badNeq(xs []float64) int {
	n := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[i-1] {
			n++
		}
	}
	return n
}

func badFloat32(a, b float32) bool {
	return a == b
}

func goodConstZero(x float64) bool {
	return x == 0 // sentinel comparison against a constant: exempt
}

func goodNamedConst(x float64) bool {
	const unset = -1.0
	return x != unset // exempt: constant operand
}

func goodComparator(xs []float64, ids []int) {
	sort.Slice(ids, func(i, j int) bool {
		if xs[ids[i]] != xs[ids[j]] { // exact tie-break in a comparator: exempt
			return xs[ids[i]] < xs[ids[j]]
		}
		return ids[i] < ids[j]
	})
}

func goodInts(a, b int) bool {
	return a == b
}

func ignored(a, b float64) bool {
	//rexlint:ignore floateq bit-exact identity check is intentional
	return a == b
}
