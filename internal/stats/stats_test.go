package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestCV(t *testing.T) {
	if cv := CV([]float64{5, 5, 5}); cv != 0 {
		t.Errorf("CV of constants = %v", cv)
	}
	if cv := CV([]float64{0, 0}); cv != 0 {
		t.Errorf("CV with zero mean = %v", cv)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if cv := CV(xs); !almostEq(cv, 0.4, 1e-12) {
		t.Errorf("CV = %v, want 0.4", cv)
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-10, 1}, {110, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentiles(xs, c.p)[0]; !almostEq(got, c.want, 1e-12) {
			t.Errorf("Percentiles(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentiles(nil, 50)[0]) {
		t.Error("empty percentile should be NaN")
	}
}

func TestPercentilesBatch(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got := Percentiles(xs, 0, 50, 100)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Percentiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, v := range Percentiles(nil, 50, 99) {
		if !math.IsNaN(v) {
			t.Error("empty Percentiles should be NaN")
		}
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]float64{1, 1, 1, 1}); !almostEq(g, 0, 1e-12) {
		t.Errorf("Gini equality = %v", g)
	}
	// One holder of everything among n: G = (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 10}); !almostEq(g, 0.75, 1e-12) {
		t.Errorf("Gini concentration = %v, want 0.75", g)
	}
	if g := Gini(nil); g != 0 {
		t.Errorf("Gini(nil) = %v", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Errorf("Gini all-zero = %v", g)
	}
	// Negative values are clamped, not panicking.
	if g := Gini([]float64{-5, 5}); !almostEq(g, 0.5, 1e-12) {
		t.Errorf("Gini with negative = %v", g)
	}
}

func TestQuickGiniRange(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		g := Gini(xs)
		return g >= -1e-12 && g < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickPercentileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	f := func() bool {
		n := 1 + r.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		p1, p2 := r.Float64()*100, r.Float64()*100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		ps := Percentiles(xs, p1, p2)
		return ps[0] <= ps[1]+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
