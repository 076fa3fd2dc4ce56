// One hop: a //rexlint:noalloc function reads the own sites of each
// unannotated module callee at the call, and trusts an annotated callee,
// which is checked on its own. What lies past one hop needs the directive.
package alloccheck

// outer is not a leaf: the allocation below it is grow's, two hops from
// viaNonLeaf.
func outer(xs []int) []int {
	return grow(xs, 1)
}

//rexlint:noalloc
func viaNonLeaf() {
	scratch = outer(scratch)
}

// annotated allocates: it is flagged at its own site, and its caller,
// which trusts the directive, stays silent.
//
//rexlint:noalloc
func annotated(xs []int) []int {
	return append(xs, 1)
}

//rexlint:noalloc
func trustsAnnotated() {
	scratch = annotated(scratch)
}
