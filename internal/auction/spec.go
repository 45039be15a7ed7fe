package auction

import (
	"fmt"

	"fmore/internal/dist"
)

// This file holds the serializable descriptions of the package's
// constructors. Every wire form that names a rule or a bidder game embeds
// them — the exchange's /v1 job body (JSON), its write-ahead log and
// snapshot — so the field names and JSON tags are part of those formats and
// must not change.

// RuleSpec is the serializable description of a scoring rule, rebuilt into
// a ScoringRule on the receiving side. It covers the rule families of
// §III-A, optionally min–max normalized.
type RuleSpec struct {
	// Kind is "additive", "leontief" or "cobb-douglas".
	Kind string `json:"kind"`
	// Alpha holds the coefficients (exponents for Cobb–Douglas).
	Alpha []float64 `json:"alpha"`
	// Scale is the Cobb–Douglas scale factor (ignored otherwise).
	Scale float64 `json:"scale,omitempty"`
	// NormLo/NormHi, when non-empty, wrap the rule in min–max normalization.
	NormLo []float64 `json:"norm_lo,omitempty"`
	NormHi []float64 `json:"norm_hi,omitempty"`
}

// Build reconstructs the scoring rule.
func (r RuleSpec) Build() (ScoringRule, error) {
	var (
		rule ScoringRule
		err  error
	)
	switch r.Kind {
	case "additive":
		rule, err = NewAdditive(r.Alpha...)
	case "leontief":
		rule, err = NewLeontief(r.Alpha...)
	case "cobb-douglas":
		rule, err = NewCobbDouglas(r.Scale, r.Alpha...)
	default:
		return nil, fmt.Errorf("auction: unknown rule kind %q", r.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("auction: building rule: %w", err)
	}
	if len(r.NormLo) > 0 || len(r.NormHi) > 0 {
		rule, err = NewNormalized(rule, r.NormLo, r.NormHi)
		if err != nil {
			return nil, fmt.Errorf("auction: building normalizer: %w", err)
		}
	}
	return rule, nil
}

// SpecForRule serializes a supported scoring rule into a RuleSpec.
func SpecForRule(rule ScoringRule) (RuleSpec, error) {
	switch r := rule.(type) {
	case Additive:
		return RuleSpec{Kind: "additive", Alpha: r.Alpha}, nil
	case Leontief:
		return RuleSpec{Kind: "leontief", Alpha: r.Alpha}, nil
	case CobbDouglas:
		return RuleSpec{Kind: "cobb-douglas", Alpha: r.Exponents, Scale: r.Scale}, nil
	case Normalized:
		inner, err := SpecForRule(r.Rule)
		if err != nil {
			return RuleSpec{}, err
		}
		inner.NormLo, inner.NormHi = r.Lo, r.Hi
		return inner, nil
	default:
		return RuleSpec{}, fmt.Errorf("auction: rule %T is not serializable", rule)
	}
}

// CostSpec is the serializable description of a bidder cost family c(q, θ),
// rebuilt into a CostFunction.
type CostSpec struct {
	// Kind is "linear", "quadratic" or "power".
	Kind string `json:"kind"`
	// Beta holds the per-dimension coefficients.
	Beta []float64 `json:"beta"`
	// Gamma is the power-cost exponent (ignored otherwise).
	Gamma float64 `json:"gamma,omitempty"`
}

// Build reconstructs the cost function.
func (c CostSpec) Build() (CostFunction, error) {
	var (
		cost CostFunction
		err  error
	)
	switch c.Kind {
	case "linear":
		cost, err = NewLinearCost(c.Beta...)
	case "quadratic":
		cost, err = NewQuadraticCost(c.Beta...)
	case "power":
		cost, err = NewPowerCost(c.Gamma, c.Beta...)
	default:
		return nil, fmt.Errorf("auction: unknown cost kind %q", c.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("auction: building cost: %w", err)
	}
	return cost, nil
}

// DistSpec is the serializable description of the private-type distribution
// F of θ.
type DistSpec struct {
	// Kind is "uniform" (the paper's choice for all experiments).
	Kind string  `json:"kind"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// Build reconstructs the distribution.
func (d DistSpec) Build() (dist.Distribution, error) {
	switch d.Kind {
	case "uniform":
		u, err := dist.NewUniform(d.Lo, d.Hi)
		if err != nil {
			return nil, fmt.Errorf("auction: building distribution: %w", err)
		}
		return u, nil
	default:
		return nil, fmt.Errorf("auction: unknown distribution kind %q", d.Kind)
	}
}

// EquilibriumSpec describes the bidder-side auction game of a hosted job —
// everything SolveEquilibrium needs beyond the job's own scoring rule and
// K. A job carrying it can serve the solved Theorem 1 strategy to its edge
// clients (GET /jobs/{id}/strategy on the exchange), so nodes need not run
// the equilibrium solver locally.
type EquilibriumSpec struct {
	// Cost is the common-knowledge cost family c(q, θ).
	Cost CostSpec `json:"cost"`
	// Theta is the distribution F of the private cost parameter.
	Theta DistSpec `json:"theta"`
	// N is the number of bidders in the game (the population size, > K).
	N int `json:"n"`
	// QLo, QHi bound the feasible quality box per dimension.
	QLo []float64 `json:"q_lo"`
	QHi []float64 `json:"q_hi"`
	// Solver optionally names the payment solver: "quadrature" (default),
	// "euler" or "rk4".
	Solver string `json:"solver,omitempty"`
}

// Config assembles and validates the full equilibrium configuration for a
// job's scoring rule and winner count.
func (e EquilibriumSpec) Config(rule ScoringRule, k int) (EquilibriumConfig, error) {
	cost, err := e.Cost.Build()
	if err != nil {
		return EquilibriumConfig{}, err
	}
	theta, err := e.Theta.Build()
	if err != nil {
		return EquilibriumConfig{}, err
	}
	var solver SolverKind
	switch e.Solver {
	case "":
		// leave zero: SolveEquilibrium applies its default
	case "quadrature":
		solver = SolverQuadrature
	case "euler":
		solver = SolverEuler
	case "rk4":
		solver = SolverRK4
	default:
		return EquilibriumConfig{}, fmt.Errorf("auction: unknown solver %q", e.Solver)
	}
	cfg := EquilibriumConfig{
		Rule:   rule,
		Cost:   cost,
		Theta:  theta,
		N:      e.N,
		K:      k,
		QLo:    append([]float64(nil), e.QLo...),
		QHi:    append([]float64(nil), e.QHi...),
		Solver: solver,
	}
	if err := cfg.Validate(); err != nil {
		return EquilibriumConfig{}, err
	}
	return cfg, nil
}
