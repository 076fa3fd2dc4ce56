// Fixture for the detflow analyzer: a miniature journal sink plus the
// positive cases (map-ordered keys emitted unsorted, a sink called inside
// map iteration, an ordered value laundered through a forwarding helper)
// and the near-miss negatives (sorted before emit, writes into a map that
// erase order).
package detflow

import "sort"

var out []string

// emit is the fixture's deterministic-output sink.
//
//rexlint:detsink journal write
func emit(line string) { out = append(out, line) }

// unsortedKeys emits map keys in iteration order.
func unsortedKeys(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		emit(k) // want `value ordered by map iteration order flows into journal write sink`
	}
}

// sortedKeys sorts before emitting: clean.
func sortedKeys(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		emit(k)
	}
}

// inlineEmit calls the sink from inside the range body, so the emission
// order itself is nondeterministic even though the argument is clean.
func inlineEmit(m map[string]int) {
	for k := range m {
		_ = k
		emit("entry") // want `journal write sink .*emit called inside map iteration`
	}
}

// forward launders its argument into the sink; the obligation propagates
// to forward's callers through the parameter-sink summary.
func forward(line string) { emit(line) }

// launder passes a map-ordered value through the forwarding helper.
func launder(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		forward(k) // want `value ordered by map iteration order flows into journal write sink .*emit`
	}
}

// selectOrder emits a value whose arrival order depends on which channel
// fires first.
func selectOrder(a, b chan string) {
	var v string
	select {
	case v = <-a:
	case v = <-b:
	}
	emit(v) // want `value ordered by select arm completion order flows into journal write sink`
}

// pingPong and pongPing are mutually recursive: the summary solver must
// reach a fixpoint on the cycle and still carry the sink obligation out to
// callers.
func pingPong(line string, depth int) {
	if depth == 0 {
		emit(line)
		return
	}
	pongPing(line, depth-1)
}

func pongPing(line string, depth int) {
	if depth > 0 {
		pingPong(line, depth-1)
	}
}

// cyclicLaunder feeds a map-ordered value into the recursive pair.
func cyclicLaunder(m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		pongPing(k, 3) // want `value ordered by map iteration order flows into journal write sink .*emit`
	}
}

// mapCopy writes range output into another map: the destination has no
// order, so nothing is tainted and the final emit of a constant is clean.
func mapCopy(m map[string]int) map[string]int {
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	emit("copied")
	return c
}
