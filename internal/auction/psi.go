package auction

import "math"

// PaperSelectionProbability is the paper's closed form (§III-C) for the
// probability that ψ-FMore fills the winner set:
//
//	Pr(ψ) = Σ_{i=0}^{N−K} C(i+K, i) (1−ψ)^i ψ^K.
//
// It is reproduced verbatim for comparison; see ExactSelectionProbability
// for the standard negative-binomial form.
func PaperSelectionProbability(n, k int, psi float64) float64 {
	if k < 1 || n < k {
		return 0
	}
	if psi >= 1 {
		return 1
	}
	sum := 0.0
	for i := 0; i <= n-k; i++ {
		sum += binomialCoeff(i+k, i) * math.Pow(1-psi, float64(i)) * math.Pow(psi, float64(k))
	}
	return math.Min(sum, 1)
}

// ExactSelectionProbability is the negative-binomial probability that K
// admissions occur within N independent ψ-Bernoulli visits — the exact
// chance that a single pass over N candidates fills the winner set:
//
//	Pr = Σ_{i=0}^{N−K} C(K−1+i, i) ψ^K (1−ψ)^i.
func ExactSelectionProbability(n, k int, psi float64) float64 {
	if k < 1 || n < k {
		return 0
	}
	if psi >= 1 {
		return 1
	}
	sum := 0.0
	for i := 0; i <= n-k; i++ {
		sum += binomialCoeff(k-1+i, i) * math.Pow(psi, float64(k)) * math.Pow(1-psi, float64(i))
	}
	return math.Min(sum, 1)
}

// binomialCoeff computes C(n, k) in floating point via lgamma to avoid
// overflow for the population sizes used in experiments.
func binomialCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(ln - lk - lnk)
}
