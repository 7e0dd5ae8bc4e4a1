// Package perfgate is the repository's performance/statistics
// regression sentinel: a dependency-free statistics core (median, MAD,
// Mann–Whitney significance), the reader for the lpbuf/bench/v2
// artifacts cmd/benchjson writes, one benchstat-style comparison
// driven by a policy table — per-metric tolerance bands and
// directions, plus ratio rows that hold one benchmark of the new
// artifact against another (the sampled PMU's sims/sec cost) — and a
// golden sim-stat baseline format capturing the paper-level numbers
// (Figure 7 buffer-issue percentages, dynamic op and fetch counts,
// normalized fetch energy) so functional drift is caught even when
// wall-clock numbers look fine.
//
// cmd/benchdiff is the CLI over this package; the tier-1 baseline test
// at the repository root and the CI perf job are its two standing
// consumers.
package perfgate

import (
	"math"
	"sort"
)

// Median returns the median of xs (0 for an empty slice). The input is
// not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MAD returns the median absolute deviation from the median — a robust
// spread estimate that a single outlier sample cannot blow up the way
// it blows up a standard deviation.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return Median(dev)
}

// MannWhitney runs a two-sided Mann–Whitney U test on two independent
// samples and returns the p-value for the null hypothesis that the two
// distributions are equal. Small tie-free samples use the exact U
// distribution; everything else uses the normal approximation with tie
// and continuity corrections (the same scheme benchstat uses). The
// returned p is 1 when either sample is empty or when every
// observation is identical (no evidence either way).
func MannWhitney(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	// Joint ranking with average ranks for ties.
	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	ranks := make([]float64, len(all))
	ties := false
	var tieTerm float64 // sum of t^3 - t over tie groups
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		if t := j - i; t > 1 {
			ties = true
			tieTerm += float64(t*t*t - t)
		}
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1*(n1+1))/2
	u2 := float64(n1*n2) - u1
	u := math.Min(u1, u2)

	if !ties && n1 <= 12 && n2 <= 12 {
		return exactMannWhitneyP(n1, n2, u)
	}
	n := float64(n1 + n2)
	mu := float64(n1*n2) / 2
	sigma2 := float64(n1*n2) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return 1 // all observations identical
	}
	// Continuity correction toward the mean.
	z := (u - mu + 0.5) / math.Sqrt(sigma2)
	p := math.Erfc(math.Abs(z) / math.Sqrt2) // two-sided
	if p > 1 {
		p = 1
	}
	return p
}

// exactMannWhitneyP computes the two-sided exact p-value
// 2*P(U <= u) for tie-free samples via the standard counting
// recurrence c(n1,n2,u) = c(n1-1,n2,u-n2) + c(n1,n2-1,u).
func exactMannWhitneyP(n1, n2 int, u float64) float64 {
	umax := n1 * n2
	ui := int(math.Floor(u + 1e-9))
	if ui > umax {
		ui = umax
	}
	// count[i][j][k] = number of orderings of i+j observations with
	// statistic k. Built iteratively to avoid recursion.
	count := make([][][]float64, n1+1)
	for i := 0; i <= n1; i++ {
		count[i] = make([][]float64, n2+1)
		for j := 0; j <= n2; j++ {
			count[i][j] = make([]float64, umax+1)
		}
	}
	count[0][0][0] = 1
	for i := 0; i <= n1; i++ {
		for j := 0; j <= n2; j++ {
			if i == 0 && j == 0 {
				continue
			}
			for k := 0; k <= i*j; k++ {
				var c float64
				if i > 0 && k-j >= 0 {
					c += count[i-1][j][k-j]
				}
				if j > 0 {
					c += count[i][j-1][k]
				}
				count[i][j][k] = c
			}
		}
	}
	var total, cum float64
	for k := 0; k <= umax; k++ {
		total += count[n1][n2][k]
	}
	for k := 0; k <= ui; k++ {
		cum += count[n1][n2][k]
	}
	p := 2 * cum / total
	if p > 1 {
		p = 1
	}
	return p
}
