package exchange

import (
	"fmt"
	"log"
	"os"
)

// WALFailurePolicy selects what a durable exchange does when its outcome
// log takes its first sticky error (write, fsync, rotation or encode);
// see Options.OnWALFailure.
type WALFailurePolicy int

const (
	// WALDegrade (the default) keeps the replica up in degraded mode: bid
	// submits, round closes and job mutations are refused with
	// *DegradedError (503 durability_lost over HTTP) while reads, outcome
	// pages and SSE keep serving what memory already holds. /v1/healthz
	// reports the condition so a router steers new bid traffic to healthy
	// replicas.
	WALDegrade WALFailurePolicy = iota
	// WALFailstop terminates the process on the first sticky WAL error,
	// for operators who prefer a crash-and-restart (or failover) to a
	// read-only survivor.
	WALFailstop
)

// DegradedError reports a durable operation refused because the replica
// has lost durability: the outcome log took a sticky error and accepting
// the operation would acknowledge state a restart cannot recover. Clients
// should retry against a healthy replica (HTTP: 503 durability_lost with
// a retry hint).
type DegradedError struct {
	// Err is the WAL's first sticky error — the root cause.
	Err error
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("exchange: durability lost, refusing durable writes (degraded): %v", e.Err)
}

func (e *DegradedError) Unwrap() error { return e.Err }

// failstopExit is swapped by tests; production failstop really exits.
var failstopExit = func(code int) { os.Exit(code) }

// walFailure is the log's OnFail callback under policy: it runs exactly
// once, from whichever goroutine publishes the WAL's first sticky error,
// and must never block (the writer goroutine calls it with appenders
// possibly parked on a full channel). The degraded state itself is not
// stored here — it is the log's sticky error, read where it lives.
func walFailure(policy WALFailurePolicy) func(error) {
	return func(err error) {
		if policy == WALFailstop {
			log.Printf("exchange: outcome log failed, failstop policy: %v", err)
			failstopExit(1)
			return
		}
		log.Printf("exchange: outcome log failed, entering degraded mode (refusing durable writes): %v", err)
	}
}

// Degraded reports whether the replica has lost durability (the outcome
// log took a sticky error under the degrade policy). Always false on an
// in-memory exchange.
func (ex *Exchange) Degraded() bool { return ex.degradedErr() != nil }

// DegradedSince returns when durability was lost (Unix seconds), 0 while
// healthy.
func (ex *Exchange) DegradedSince() int64 {
	if ex.wal == nil {
		return 0
	}
	return ex.wal.FailedUnix()
}

// degradedErr gates the durable write paths: nil while healthy (one
// atomic load on the hot path), a *DegradedError carrying the root cause
// once the WAL has failed.
func (ex *Exchange) degradedErr() error {
	if ex.wal == nil {
		return nil
	}
	if err := ex.wal.Err(); err != nil {
		return &DegradedError{Err: err}
	}
	return nil
}
