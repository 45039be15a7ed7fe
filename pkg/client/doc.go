// Package client is the typed Go SDK for the FMore exchange's versioned
// /v1 HTTP API (internal/exchange, served by cmd/fmore-exchange). It is the
// single supported way for in-repo consumers — cmd/edgenode and the bench/
// program — to talk to an exchange; nothing else should construct raw
// exchange HTTP requests.
//
// A Client wraps one exchange base URL with connection reuse, uniform
// {code, message} error decoding (APIError), and context-aware retries with
// jittered exponential backoff: 3 retries from a 100 ms base, at most 5 s
// of sleep per call. Mutating calls are made retry-safe with
// idempotency keys: CreateJob and SubmitBid attach one automatically, so a
// request replayed after a network failure returns the original result
// instead of a duplicate-ID or duplicate-bid conflict.
//
// The request and response types (Job, Bid, Outcome, Metrics, the stats
// rollups, Strategy) and the Code* constants are aliases of pkg/api, the
// one declaration of the /v1 wire and its routes (api.Routes) that the
// exchange's handler serves — the SDK cannot lag behind the server by a field.
//
// Against a partitioned cluster (see EnableRouting) per-job calls go
// straight to the replica owning the job, and every call — event streams
// included — that a replica refuses with wrong_partition is replayed once,
// unchanged, against the owner the refusal names, refreshing the map from
// the refuser on the way. That rule is internal/partition's Routes.Reaim,
// the same code cmd/fmore-router runs; a durability_lost answer refreshes
// the map from the base URL and re-aims once as well.
//
// The request/response surface mirrors the API one-to-one — CreateJob,
// Jobs (cursor pagination followed transparently), SubmitBid, CloseRound,
// Outcome/LatestOutcome/WaitOutcome/Outcomes, Register, Blacklist,
// Strategy, Metrics — plus two higher-level helpers:
//
//   - WatchRounds subscribes to the job's server-push round stream
//     (GET /v1/jobs/{id}/events, Server-Sent Events). The returned Watch
//     delivers round_open / round_closed (outcome inline) / job_closed
//     events in order and survives connection drops: it reconnects with
//     Last-Event-ID set to the last delivered round and the exchange
//     replays whatever was missed, so within the job's retained history a
//     consumer observes every round exactly once. This replaces outcome
//     long-polling for edge nodes.
//
//   - Bidder (NewBidder) fetches a job's solved Theorem 1 equilibrium bid
//     curve once and interpolates the node's (quality, payment) bid from
//     its private type θ — the node never runs the equilibrium solver.
//
// See example_test.go for a runnable end-to-end round trip against an
// in-process exchange.
package client
