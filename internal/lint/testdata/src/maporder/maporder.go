// Fixture for the maporder analyzer: building slices from map iteration is
// flagged unless the slice is sorted afterwards (or the loop is over a
// slice, or the slice is loop-local).
package maporder

import "sort"

func bad(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

type state struct{ ids []int }

func badField(s *state, m map[int]int) {
	for k := range m {
		s.ids = append(s.ids, k)
	}
}

func goodSortedAfter(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // collect-then-sort idiom: not flagged
	}
	sort.Ints(keys)
	return keys
}

func goodLoopLocal(m map[int][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

func goodSliceRange(xs []int) []int {
	var out []int
	for _, x := range xs { // ranging over a slice is fine
		out = append(out, x)
	}
	return out
}

func ignored(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v) //rexlint:ignore maporder order is normalized by the caller
	}
	return out
}
