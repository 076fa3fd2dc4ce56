package lint

// DetFlow upgrades the syntactic maporder check into an interprocedural
// output-determinism proof for the observability, simulator, and control
// packages: values whose order derives from map iteration (range, maps.Keys/
// Values/All) or multi-arm select receives carry order taint until they are
// sorted (any sort./slices. call). Order-tainted values must not reach a
// //rexlint:detsink function — journal writes, Prometheus exposition,
// fixed-format reports — directly or through a callee whose parameter reaches a sink (the summary
// layer propagates that obligation with a blame chain). Calling a sink
// inside a map-range body is flagged even with clean arguments: the call
// order itself is nondeterministic.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "forbid map/select-ordered values from reaching journal, exposition, or report sinks (//rexlint:detsink) unless sorted or canonicalized",
	Run:  func(pass *Pass) error { return runValueFlow(pass, vfDet) },
}
