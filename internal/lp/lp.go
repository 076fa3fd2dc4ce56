// Package lp is a self-contained dense linear programming solver (two-phase
// primal simplex, stdlib only). It exists to power internal/ip's
// branch-and-bound, which computes exact reference optima for the paper's
// integer programming formulation on small instances (experiment T1).
//
// Problems are stated as
//
//	minimize  cᵀx   subject to   aᵢᵀx {≤,=,≥} bᵢ,  x ≥ 0.
//
// The implementation keeps the full tableau explicitly: problem sizes in
// this repository are tiny (tens of variables), so clarity wins over
// revised-simplex machinery.
package lp

import (
	"fmt"
	"math"
)

// Sense is a constraint direction.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // aᵀx ≤ b
	GE              // aᵀx ≥ b
	EQ              // aᵀx = b
)

// Constraint is one linear constraint over the problem's variables.
// Coefs may be shorter than NumVars; missing entries are zero.
type Constraint struct {
	Coefs []float64
	Sense Sense
	RHS   float64
}

// Problem is a minimization LP. Variables are implicitly ≥ 0.
type Problem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
}

// NewProblem creates a problem with n non-negative variables and a zero
// objective.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, Objective: make([]float64, n)}
}

// AddConstraint appends a constraint.
func (p *Problem) AddConstraint(coefs []float64, sense Sense, rhs float64) {
	p.Constraints = append(p.Constraints, Constraint{Coefs: coefs, Sense: sense, RHS: rhs})
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	X      []float64 // primal values (valid when Status == Optimal)
	Obj    float64   // objective value (valid when Status == Optimal)
}

const (
	eps     = 1e-9
	maxIter = 20000
)

// Solve runs two-phase primal simplex on p.
func Solve(p *Problem) (*Solution, error) {
	if p.NumVars <= 0 {
		return nil, fmt.Errorf("lp: problem has no variables")
	}
	if len(p.Objective) != p.NumVars {
		return nil, fmt.Errorf("lp: objective has %d coefficients for %d variables",
			len(p.Objective), p.NumVars)
	}
	for i, c := range p.Constraints {
		if len(c.Coefs) > p.NumVars {
			return nil, fmt.Errorf("lp: constraint %d has %d coefficients for %d variables",
				i, len(c.Coefs), p.NumVars)
		}
	}

	t := newTableau(p)
	// Phase 1: minimize the sum of artificial variables.
	if t.numArt > 0 {
		t.installCosts(t.phase1Costs())
		st := t.iterate()
		if st != Optimal {
			return &Solution{Status: st}, nil
		}
		if t.objValue() > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		t.expelArtificials()
	}
	// Phase 2: minimize the real objective, artificials barred.
	t.banArtificials()
	t.installCosts(t.phase2Costs(p))
	st := t.iterate()
	if st != Optimal {
		return &Solution{Status: st}, nil
	}
	x := t.extract(p.NumVars)
	obj := 0.0
	for j, c := range p.Objective {
		obj += c * x[j]
	}
	return &Solution{Status: Optimal, X: x, Obj: obj}, nil
}

// tableau is the dense simplex tableau: rows[0..m) are constraints, cost is
// the reduced-cost row, rhs the right-hand sides, basis the basic variable
// of each row.
type tableau struct {
	m, n    int // constraints, total columns (vars + slacks + artificials)
	numArt  int
	artFrom int // first artificial column index
	rows    [][]float64
	rhs     []float64
	cost    []float64
	costRHS float64
	basis   []int
	banned  []bool // columns barred from entering (artificials in phase 2)
}

// newTableau standardizes the problem: negative RHS rows are flipped,
// slack/surplus columns added, artificials introduced for GE/EQ rows, and
// an initial basis of slacks/artificials installed.
func newTableau(p *Problem) *tableau {
	m := len(p.Constraints)
	// count extra columns
	numSlack, numArt := 0, 0
	for _, c := range p.Constraints {
		sense, rhs := c.Sense, c.RHS
		if rhs < 0 {
			sense = flip(sense)
		}
		switch sense {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
	}
	n := p.NumVars + numSlack + numArt
	t := &tableau{
		m: m, n: n,
		numArt:  numArt,
		artFrom: p.NumVars + numSlack,
		rows:    make([][]float64, m),
		rhs:     make([]float64, m),
		cost:    make([]float64, n),
		basis:   make([]int, m),
		banned:  make([]bool, n),
	}
	slackCol := p.NumVars
	artCol := t.artFrom
	for i, c := range p.Constraints {
		row := make([]float64, n)
		sign := 1.0
		rhs := c.RHS
		sense := c.Sense
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			sense = flip(sense)
		}
		for j, v := range c.Coefs {
			row[j] = sign * v
		}
		switch sense {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.rows[i] = row
		t.rhs[i] = rhs
	}
	return t
}

func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// phase1Costs returns the cost vector charging 1 per artificial.
func (t *tableau) phase1Costs() []float64 {
	c := make([]float64, t.n)
	for j := t.artFrom; j < t.n; j++ {
		c[j] = 1
	}
	return c
}

// phase2Costs embeds the real objective in the tableau's column space.
func (t *tableau) phase2Costs(p *Problem) []float64 {
	c := make([]float64, t.n)
	copy(c, p.Objective)
	return c
}

// installCosts sets the reduced-cost row for the given costs, making the
// reduced costs of basic variables zero.
func (t *tableau) installCosts(c []float64) {
	copy(t.cost, c)
	t.costRHS = 0
	for i, b := range t.basis {
		cb := c[b]
		if cb == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.cost[j] -= cb * t.rows[i][j]
		}
		t.costRHS -= cb * t.rhs[i]
	}
}

// objValue returns the current objective value (phase-dependent).
func (t *tableau) objValue() float64 { return -t.costRHS }

// iterate runs simplex pivots until optimality, unboundedness, or the
// iteration limit. Dantzig's rule is used initially; Bland's rule takes
// over after n+m degenerate-looking iterations to guarantee termination.
func (t *tableau) iterate() Status {
	blandAfter := 4 * (t.n + t.m + 8)
	for it := 0; it < maxIter; it++ {
		bland := it > blandAfter
		col := t.entering(bland)
		if col < 0 {
			return Optimal
		}
		row := t.leaving(col)
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
	}
	return IterLimit
}

// entering picks the entering column: most negative reduced cost
// (Dantzig), or the lowest-index negative one (Bland).
func (t *tableau) entering(bland bool) int {
	best := -1
	bestVal := -eps
	for j := 0; j < t.n; j++ {
		if t.banned[j] {
			continue
		}
		if t.cost[j] < bestVal {
			if bland {
				return j
			}
			best = j
			bestVal = t.cost[j]
		}
	}
	return best
}

// leaving runs the minimum-ratio test for the entering column, breaking
// ties toward the smallest basis index (a lexicographic anti-cycling aid).
func (t *tableau) leaving(col int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i := 0; i < t.m; i++ {
		a := t.rows[i][col]
		if a <= eps {
			continue
		}
		r := t.rhs[i] / a
		if r < bestRatio-eps || (r < bestRatio+eps && (best < 0 || t.basis[i] < t.basis[best])) {
			best = i
			bestRatio = r
		}
	}
	return best
}

// pivot performs a full Gauss-Jordan pivot at (row, col).
func (t *tableau) pivot(row, col int) {
	pr := t.rows[row]
	pv := pr[col]
	inv := 1 / pv
	for j := 0; j < t.n; j++ {
		pr[j] *= inv
	}
	t.rhs[row] *= inv
	pr[col] = 1 // exactness
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.rows[i][col]
		if f == 0 {
			continue
		}
		ri := t.rows[i]
		for j := 0; j < t.n; j++ {
			ri[j] -= f * pr[j]
		}
		ri[col] = 0
		t.rhs[i] -= f * t.rhs[row]
	}
	if f := t.cost[col]; f != 0 {
		for j := 0; j < t.n; j++ {
			t.cost[j] -= f * pr[j]
		}
		t.cost[col] = 0
		t.costRHS -= f * t.rhs[row]
	}
	t.basis[row] = col
}

// expelArtificials pivots artificial variables out of the basis after
// phase 1 where possible; rows where no real column is available are
// redundant and keep a zero-valued artificial basic.
func (t *tableau) expelArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artFrom {
			continue
		}
		for j := 0; j < t.artFrom; j++ {
			if math.Abs(t.rows[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
	}
}

// banArtificials bars artificial columns from re-entering in phase 2.
func (t *tableau) banArtificials() {
	for j := t.artFrom; j < t.n; j++ {
		t.banned[j] = true
	}
}

// extract reads the primal values of the first n variables.
func (t *tableau) extract(n int) []float64 {
	x := make([]float64, n)
	for i, b := range t.basis {
		if b < n {
			x[b] = t.rhs[i]
		}
	}
	// clean tiny negatives from roundoff
	for j := range x {
		if x[j] < 0 && x[j] > -1e-7 {
			x[j] = 0
		}
	}
	return x
}
