package lint

// NonNeg proves annotated resource counters non-negative on every path — a
// sign/interval dataflow that turns the double-release bug class (an
// executor releasing the same reservation twice drove its in-flight count
// below zero) into a static error. Integer struct fields opt in with
//
//	count int //rexlint:nonneg
//
// Decrements are legal only where the proven lower bound covers them:
// branch conditions refine bounds (`if q.n > 0 { q.n-- }` is proven), and
// //rexlint:requires f>=k states a method's entry precondition (checked at
// every call site against the caller's proven bound). A call whose callee's
// effect summary may write its receiver, its parameters or global state
// (or that has no resolvable target) drops every field-rooted bound to the
// invariant floor 0; a callee's net increment is not credited. Local copies
// of a counter (`remaining := p.vacant`) are tracked under the same
// invariant and keep their bounds across calls. Writes through index expressions are outside the proof
// (exprKey cannot canonicalize them); decrements the checker cannot prove
// are waivable with //rexlint:ignore nonneg <invariant>.
var NonNeg = &Analyzer{
	Name: "nonneg",
	Doc:  "prove //rexlint:nonneg counters never go negative on any path; check //rexlint:requires preconditions at call sites",
	Run:  func(pass *Pass) error { return runValueFlow(pass, vfNonneg) },
}
