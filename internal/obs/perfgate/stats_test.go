package perfgate

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Input must not be reordered.
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestMAD(t *testing.T) {
	if got := MAD([]float64{1, 1, 1, 1}); got != 0 {
		t.Errorf("MAD of constants = %v, want 0", got)
	}
	// Median 3, deviations {2,1,0,1,2} -> median 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("MAD(1..5) = %v, want 1", got)
	}
	// One huge outlier barely moves MAD.
	if got := MAD([]float64{1, 2, 3, 4, 1e9}); got != 1 {
		t.Errorf("MAD with outlier = %v, want 1", got)
	}
}

func TestMannWhitneySeparated(t *testing.T) {
	a := []float64{100, 101, 99, 103, 102}
	b := []float64{110, 111, 109, 113, 112}
	p := MannWhitney(a, b)
	// Fully separated n=5+5: exact two-sided p = 2/C(10,5) = 0.0079...
	if p >= 0.05 {
		t.Errorf("separated samples p = %v, want < 0.05", p)
	}
	if math.Abs(p-2.0/252.0) > 1e-9 {
		t.Errorf("exact p = %v, want %v", p, 2.0/252.0)
	}
	// Symmetry.
	if p2 := MannWhitney(b, a); math.Abs(p-p2) > 1e-12 {
		t.Errorf("p not symmetric: %v vs %v", p, p2)
	}
}

func TestMannWhitneyOverlapping(t *testing.T) {
	a := []float64{100, 101, 99, 102, 100.5}
	b := []float64{100.2, 99.5, 101.5, 100.1, 99.9}
	if p := MannWhitney(a, b); p < 0.3 {
		t.Errorf("overlapping samples p = %v, want large", p)
	}
}

func TestMannWhitneyDegenerate(t *testing.T) {
	if p := MannWhitney(nil, []float64{1}); p != 1 {
		t.Errorf("empty side p = %v, want 1", p)
	}
	// All identical (fully tied): no evidence.
	if p := MannWhitney([]float64{5, 5, 5, 5}, []float64{5, 5, 5, 5}); p != 1 {
		t.Errorf("all-equal p = %v, want 1", p)
	}
	// Single sample per side can never be significant.
	if p := MannWhitney([]float64{1}, []float64{100}); p < 0.05 {
		t.Errorf("n=1+1 p = %v, want >= 0.05", p)
	}
}

func TestMannWhitneyTiesUseApproximation(t *testing.T) {
	// Heavy cross-group ties force the normal approximation; separated
	// groups must still come out significant.
	a := []float64{1, 1, 1, 2, 2, 2, 1, 2}
	b := []float64{9, 9, 9, 10, 10, 10, 9, 10}
	if p := MannWhitney(a, b); p >= 0.01 {
		t.Errorf("tied separated samples p = %v, want < 0.01", p)
	}
}
