// Package vec provides fixed-dimension resource vectors used throughout the
// cluster model. A Vec holds one scalar per static resource dimension
// (memory, disk, network), with value semantics so that copies are cheap and
// aggregate bookkeeping stays allocation-free on the rebalancing hot path.
//
// The dynamic (balanced) resource — per-shard query load — is deliberately
// not part of Vec: the paper's model treats static resources as hard
// capacity constraints and load as the optimization objective, and the two
// are manipulated by different code paths.
package vec

import (
	"fmt"
	"math"
	"strings"
)

// Resource enumerates the static resource dimensions tracked per shard and
// per machine.
type Resource int

// Static resource dimensions. Memory and Disk correspond to the transient
// constraint in the paper (an in-flight shard occupies both endpoints);
// Net models per-machine replication/network budget.
const (
	Memory Resource = iota
	Disk
	Net

	// NumResources is the number of static dimensions in a Vec.
	NumResources = 3
)

// resourceNames maps Resource values to their display names.
var resourceNames = [NumResources]string{"mem", "disk", "net"}

// String returns the short human-readable name of the resource.
func (r Resource) String() string {
	if r < 0 || int(r) >= NumResources {
		return fmt.Sprintf("res(%d)", int(r))
	}
	return resourceNames[r]
}

// Vec is a static resource vector: one value per Resource dimension.
// The zero value is the empty (all-zero) vector.
type Vec [NumResources]float64

// New builds a Vec from per-dimension values. Missing trailing dimensions
// default to zero; extra values are ignored.
func New(vals ...float64) Vec {
	var v Vec
	for i := 0; i < len(vals) && i < NumResources; i++ {
		v[i] = vals[i]
	}
	return v
}

// Uniform returns a Vec with every dimension set to x.
func Uniform(x float64) Vec {
	var v Vec
	for i := range v {
		v[i] = x
	}
	return v
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale returns v with every dimension multiplied by k.
func (v Vec) Scale(k float64) Vec {
	for i := range v {
		v[i] *= k
	}
	return v
}

// LEQ reports whether v ≤ w in every dimension (resource fit test).
func (v Vec) LEQ(w Vec) bool {
	for i := range v {
		if v[i] > w[i] {
			return false
		}
	}
	return true
}

// FitsWithin reports whether adding v to used keeps every dimension within
// capacity. It is the central transient-feasibility primitive: a shard of
// static demand v fits on a machine with current usage used and capacity
// capacity.
func (v Vec) FitsWithin(used, capacity Vec) bool {
	for i := range v {
		if used[i]+v[i] > capacity[i]+FitEps {
			return false
		}
	}
	return true
}

// FitEps absorbs floating-point drift from long chains of incremental
// adds/subtracts during LNS search, so that a placement that is exactly at
// capacity is not spuriously rejected. Every capacity check in the module
// (here, cluster's Feasible and CheckInvariants, ctl's transient-usage
// assert) uses this one tolerance: such chains drift on the order of 1e-12,
// so anything past it is a real overflow, not rounding.
const FitEps = 1e-9

// IsZero reports whether every dimension is exactly zero.
func (v Vec) IsZero() bool {
	for i := range v {
		if v[i] != 0 {
			return false
		}
	}
	return true
}

// NonNegative reports whether every dimension is ≥ -eps (tolerating
// incremental floating-point drift around zero).
func (v Vec) NonNegative() bool {
	for i := range v {
		if v[i] < -FitEps {
			return false
		}
	}
	return true
}

// Sum returns the sum of all dimensions.
func (v Vec) Sum() float64 {
	s := 0.0
	for i := range v {
		s += v[i]
	}
	return s
}

// MaxDim returns the largest dimension value.
func (v Vec) MaxDim() float64 {
	m := v[0]
	for i := 1; i < NumResources; i++ {
		if v[i] > m {
			m = v[i]
		}
	}
	return m
}

// MaxRatio returns max_i v[i]/w[i], treating dimensions with w[i] == 0 as
// contributing 0 when v[i] == 0 and +Inf otherwise. It is the normalized
// pressure of demand v against capacity w.
//
//rexlint:pure
func (v Vec) MaxRatio(w Vec) float64 {
	m := 0.0
	for i := range v {
		switch {
		case w[i] > 0:
			if r := v[i] / w[i]; r > m {
				m = r
			}
		case v[i] > 0:
			return math.Inf(1)
		}
	}
	return m
}

// Dot returns the inner product of v and w.
//
//rexlint:pure
func (v Vec) Dot(w Vec) float64 {
	s := 0.0
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 {
	return math.Sqrt(v.Dot(v))
}

// Dist2 returns the Euclidean distance between v and w. It is used by the
// related-removal (Shaw) destroy operator to measure shard similarity.
func (v Vec) Dist2(w Vec) float64 {
	return v.Sub(w).Norm2()
}

// AlmostEqual reports whether v and w differ by at most eps in every
// dimension.
func (v Vec) AlmostEqual(w Vec, eps float64) bool {
	for i := range v {
		if math.Abs(v[i]-w[i]) > eps {
			return false
		}
	}
	return true
}

// String formats the vector as "{mem:x disk:y net:z}".
func (v Vec) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%.4g", Resource(i), v[i])
	}
	b.WriteByte('}')
	return b.String()
}
