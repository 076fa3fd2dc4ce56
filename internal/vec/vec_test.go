package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPadsAndTruncates(t *testing.T) {
	v := New(1, 2)
	if v[Memory] != 1 || v[Disk] != 2 || v[Net] != 0 {
		t.Fatalf("New(1,2) = %v, want {1 2 0}", v)
	}
	w := New(1, 2, 3, 4, 5)
	if w != (Vec{1, 2, 3}) {
		t.Fatalf("New with extras = %v, want {1 2 3}", w)
	}
}

func TestUniform(t *testing.T) {
	v := Uniform(2.5)
	for i := range v {
		if v[i] != 2.5 {
			t.Fatalf("Uniform(2.5)[%d] = %v", i, v[i])
		}
	}
}

func TestArithmetic(t *testing.T) {
	a := New(1, 2, 3)
	b := New(4, 5, 6)
	if got := a.Add(b); got != (Vec{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Vec{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestLEQ(t *testing.T) {
	if !New(1, 1, 1).LEQ(New(1, 2, 3)) {
		t.Error("LEQ should hold")
	}
	if New(1, 3, 1).LEQ(New(1, 2, 3)) {
		t.Error("LEQ should fail on dim 1")
	}
}

func TestFitsWithin(t *testing.T) {
	capV := New(10, 10, 10)
	used := New(9, 5, 0)
	if !New(1, 1, 1).FitsWithin(used, capV) {
		t.Error("exact fit on mem should succeed")
	}
	if New(1.0001, 0, 0).FitsWithin(used, capV) {
		t.Error("overflow on mem should fail")
	}
	// FitEps tolerance: tiny drift past capacity is accepted.
	if !New(1+1e-12, 0, 0).FitsWithin(used, capV) {
		t.Error("sub-eps drift should be tolerated")
	}
}

func TestIsZeroAndNonNegative(t *testing.T) {
	if !(Vec{}).IsZero() {
		t.Error("zero Vec should be zero")
	}
	if New(0, 0, 1e-20).IsZero() {
		t.Error("tiny nonzero is not zero")
	}
	if !New(0, -1e-12, 0).NonNegative() {
		t.Error("drift below zero within eps should be non-negative")
	}
	if New(0, -1, 0).NonNegative() {
		t.Error("-1 is negative")
	}
}

func TestSumMaxDim(t *testing.T) {
	v := New(1, 5, 3)
	if v.Sum() != 9 {
		t.Errorf("Sum = %v", v.Sum())
	}
	if v.MaxDim() != 5 {
		t.Errorf("MaxDim = %v", v.MaxDim())
	}
}

func TestMaxRatio(t *testing.T) {
	v := New(2, 3, 0)
	w := New(4, 4, 0)
	if got := v.MaxRatio(w); got != 0.75 {
		t.Errorf("MaxRatio = %v, want 0.75", got)
	}
	// demand against zero capacity is infeasible
	if got := New(0, 0, 1).MaxRatio(New(1, 1, 0)); !math.IsInf(got, 1) {
		t.Errorf("MaxRatio vs zero cap = %v, want +Inf", got)
	}
	// zero demand against zero capacity contributes nothing
	if got := New(1, 0, 0).MaxRatio(New(2, 0, 0)); got != 0.5 {
		t.Errorf("MaxRatio zero/zero = %v, want 0.5", got)
	}
}

func TestDotNormDist(t *testing.T) {
	a := New(3, 4, 0)
	if a.Dot(New(1, 1, 1)) != 7 {
		t.Errorf("Dot = %v", a.Dot(New(1, 1, 1)))
	}
	if a.Norm2() != 5 {
		t.Errorf("Norm2 = %v", a.Norm2())
	}
	if d := a.Dist2(New(0, 0, 0)); d != 5 {
		t.Errorf("Dist2 = %v", d)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !New(1, 2, 3).AlmostEqual(New(1.0005, 2, 3), 1e-3) {
		t.Error("AlmostEqual within eps")
	}
	if New(1, 2, 3).AlmostEqual(New(1.1, 2, 3), 1e-3) {
		t.Error("AlmostEqual outside eps")
	}
}

func TestResourceString(t *testing.T) {
	if Memory.String() != "mem" || Disk.String() != "disk" || Net.String() != "net" {
		t.Errorf("resource names: %v %v %v", Memory, Disk, Net)
	}
	if Resource(99).String() != "res(99)" {
		t.Errorf("out-of-range name: %v", Resource(99))
	}
}

func TestVecString(t *testing.T) {
	got := New(1, 2.5, 0).String()
	want := "{mem:1 disk:2.5 net:0}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randVec generates bounded random vectors for property tests.
func randVec(r *rand.Rand) Vec {
	var v Vec
	for i := range v {
		v[i] = float64(r.Intn(2000)-1000) / 16
	}
	return v
}

// The quick-check properties below generate bounded vectors explicitly so
// floating-point identities hold exactly.

func TestQuickAddCommutative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randVec(r), randVec(r)
		return a.Add(b) == b.Add(a)
	}
	if err := quickCheckN(f, 500); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSubInverse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b := randVec(r), randVec(r)
		return a.Add(b).Sub(b).AlmostEqual(a, 1e-9)
	}
	if err := quickCheckN(f, 500); err != nil {
		t.Error(err)
	}
}

func TestQuickLEQAntisymmetricOnDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		a, b := randVec(r), randVec(r)
		if a == b {
			return true
		}
		// a ≤ b and b ≤ a cannot both hold for distinct vectors.
		return !(a.LEQ(b) && b.LEQ(a))
	}
	if err := quickCheckN(f, 500); err != nil {
		t.Error(err)
	}
}

func TestQuickScaleLinearInSum(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		a := randVec(r)
		k := float64(r.Intn(64)) / 4
		return math.Abs(a.Scale(k).Sum()-k*a.Sum()) < 1e-6
	}
	if err := quickCheckN(f, 500); err != nil {
		t.Error(err)
	}
}

// quickCheckN runs a nullary property n times via testing/quick.
func quickCheckN(f func() bool, n int) error {
	return quick.Check(f, &quick.Config{MaxCount: n})
}
