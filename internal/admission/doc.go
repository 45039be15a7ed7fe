// Package admission is the exchange's overload-protection subsystem: it
// decides, before any expensive work happens, whether a request is allowed
// to consume the service.
//
// # Pieces
//
// [Bucket] is a lock-free GCRA token bucket — one atomic int64 of state, so
// an admit costs a load + CAS with zero allocations. [Controller] composes
// buckets into the admission hierarchy (global → per-node → per-job),
// gates bid-submit concurrency (MaxInflight), caps concurrent SSE
// subscribers with oldest-first eviction (MaxStreams), and aggregates shed
// accounting for the admission_* metric family. [Breaker] is an
// atomics-only circuit breaker for slow downstreams (the router wraps each
// replica forward in one).
//
// # Shed policy
//
// Only cheap, retryable ingress is ever shed: bid submissions (429 +
// retry_after_ms in the v1 envelope) and excess SSE subscriptions. Round
// closes, WAL commits and SSE heartbeats are never shed — admission
// protects the round pipeline, it never stalls it. Rejections happen
// before body reads and before idempotency-key claims, so a shed request
// costs almost nothing and does not burn its Idempotency-Key.
//
// # Overload signal
//
// Controller.Overloaded reports true while the in-flight gate is saturated
// or within a fixed 1 s overload window of the most recent shed. The
// exchange surfaces it on GET /v1/healthz (503 + retry_after_ms), which the
// router probes to fail fast on behalf of overloaded replicas.
package admission
