// Fixture for the sharecheck analyzer: values of an //rexlint:owned type
// must not escape to goroutines, channels, package state, or a second
// owner. Fresh values, clones, returns, local aliases, and sanctioned
// transfers are the near-misses that must stay silent.
package sharecheck

// Box has single-owner semantics for this fixture, mirroring
// cluster.Placement.
//
//rexlint:owned
type Box struct {
	vals []int
}

func newBox() *Box { return &Box{} }

// clone deep-copies b; the result is a fresh first owner.
func (b *Box) clone() *Box {
	return &Box{vals: append([]int(nil), b.vals...)}
}

type keeper struct {
	held *Box
	many []*Box
}

var global *Box

var registry []*Box

func spawnCapture(b *Box) {
	go func() {
		_ = b.vals
	}()
}

func spawnArg(b *Box) {
	go consume(b)
}

func consume(b *Box) { _ = b }

func send(ch chan *Box, b *Box) {
	ch <- b
}

func storeGlobal(b *Box) {
	global = b
}

func (k *keeper) keep(b *Box) {
	k.held = b
}

func (k *keeper) keepMany(b *Box) {
	k.many = append(k.many, b)
}

var sinkBox *Box

// retain leaks its parameter into package state: flagged here, and its
// escape summary taints every caller that passes an owned value in.
func retain(b *Box) {
	sinkBox = b
}

func passToRetainer(b *Box) {
	retain(b)
}

// A guard that is a variable, not a constant, is ordinary control flow.
var verbose bool

func (k *keeper) keepWhenVerbose(b *Box) {
	if verbose {
		k.held = b
	}
}

// --- near-misses: all of the below must stay silent ---

// keepFresh stores a value created in the same statement: first ownership,
// not a second owner.
func (k *keeper) keepFresh() {
	k.held = newBox()
}

// keepClone clones before storing; the clone is fresh.
func (k *keeper) keepClone(b *Box) {
	k.held = b.clone()
}

// localAlias aliases locally and returns; returning hands ownership back
// to the caller.
func localAlias(b *Box) *Box {
	alias := b
	_ = alias
	return b
}

// adopt is a sanctioned hand-off: the line-level transfer blesses it.
func (k *keeper) adopt(b *Box) {
	//rexlint:transfer caller relinquishes b by documented contract
	k.held = b
}

// register takes ownership of b: it joins the package registry, and the
// line-level directive sanctions the store.
func register(b *Box) {
	//rexlint:transfer the registry takes ownership by contract
	registry = append(registry, b)
}

// A store under a constant debug guard, or a send after a panic, is
// outside the reachable, guard-folded code the site table reads.
const debugChecks = false

func (k *keeper) keepWhenDebugging(b *Box) {
	if debugChecks {
		k.held = b
	}
}

func sendAfterPanic(ch chan *Box, b *Box) {
	panic("unreachable")
	ch <- b
}
