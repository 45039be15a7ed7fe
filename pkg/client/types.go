package client

import (
	"errors"
	"fmt"
	"time"

	"fmore/internal/auction"
	"fmore/pkg/api"
)

// Wire-spec aliases. The exchange's job/equilibrium descriptions are
// defined next to the constructors they build in internal/auction; aliasing
// them here lets modules outside this repository populate JobSpec (Rule,
// Equilibrium) without naming an internal import path.
type (
	// RuleSpec describes a scoring rule ("additive", "leontief",
	// "cobb-douglas" with per-dimension coefficients).
	RuleSpec = auction.RuleSpec
	// CostSpec describes a bidder cost family c(q, θ).
	CostSpec = auction.CostSpec
	// DistSpec describes the private-type distribution F of θ.
	DistSpec = auction.DistSpec
	// EquilibriumSpec describes the bidder-side game a job needs to serve
	// the solved Theorem 1 strategy.
	EquilibriumSpec = auction.EquilibriumSpec
)

// Error codes of the v1 error envelope; pkg/api declares and explains them.
const (
	CodeInvalidRequest = api.CodeInvalidRequest
	CodeNotFound       = api.CodeNotFound
	CodeUnknownJob     = api.CodeUnknownJob
	CodeRoundPending   = api.CodeRoundPending
	CodeNoStrategy     = api.CodeNoStrategy
	CodeOutcomeEvicted = api.CodeOutcomeEvicted
	CodeDuplicateBid   = api.CodeDuplicateBid
	CodeJobClosed      = api.CodeJobClosed
	CodeBelowQuorum    = api.CodeBelowQuorum
	CodeExchangeClosed = api.CodeExchangeClosed
	CodeNotRegistered  = api.CodeNotRegistered
	CodeBlacklisted    = api.CodeBlacklisted
	CodeTimeout        = api.CodeTimeout
	CodeOverloaded     = api.CodeOverloaded
	CodeWrongPartition = api.CodeWrongPartition
	CodeDurabilityLost = api.CodeDurabilityLost
)

// APIError is a non-2xx response decoded from the uniform v1 error envelope
// {code, message, retry_after_ms?}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable machine-readable error code (Code* constants).
	Code string
	// Message is the human-readable detail.
	Message string
	// RetryAfter is the server's suggested retry delay, when it sent one.
	RetryAfter time.Duration
	// Partition, ReplicaURL and MapVersion are set on wrong_partition
	// responses: the owning partition, its replica's base URL, and the map
	// version behind the verdict.
	Partition  string
	ReplicaURL string
	MapVersion int64
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("exchange: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("exchange: %s (HTTP %d)", e.Message, e.Status)
}

// ErrorCode extracts the envelope code from an error chain, or "" when err
// is not an APIError.
func ErrorCode(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsNotFound reports whether err is any of the 404-family codes (unknown
// job, pending round, no strategy, unknown route).
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == 404
}

// The /v1 bodies, aliased from pkg/api (which documents their fields): what
// the SDK decodes is by construction what the handler encodes.
type (
	// Job is a hosted job's status view.
	Job = api.Job
	// Bid is one sealed bid: a promised quality vector and a payment.
	Bid = api.Bid
	// Winner is one selected bid of an outcome.
	Winner = api.Winner
	// Outcome is one completed auction round.
	Outcome = api.Outcome
	// Metrics is the exchange's health snapshot (GET /v1/metrics).
	Metrics = api.Metrics
	// Rollup is one windowed or lifetime aggregate of the stats endpoints.
	Rollup = api.Rollup
	// PriceHistogram is a fixed-bucket bid-price distribution.
	PriceHistogram = api.PriceHistogram
	// JobStats is the payload of GET /v1/jobs/{id}/stats.
	JobStats = api.JobStats
	// NodeStats is the payload of GET /v1/nodes/{id}/stats.
	NodeStats = api.NodeStats
	// StrategyPoint is one sampled point of the equilibrium bid curve.
	StrategyPoint = auction.StrategyPoint
	// Strategy is the solved Theorem 1 bid curve of GET /v1/jobs/{id}/strategy.
	Strategy = api.Strategy
)
