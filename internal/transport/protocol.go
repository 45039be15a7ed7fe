// Package transport implements the wire protocol of the real FMore
// deployment (§V-C): an aggregator server and edge-node clients exchanging
// length-delimited gob messages over TCP. The per-round message flow follows
// Fig. 2(b) of the paper:
//
//	node → aggregator: Hello (registration with resource description)
//	aggregator → node: Ask (scoring rule + K — "a few bytes", §III-A)
//	node → aggregator: Bid (sealed: qualities + expected payment)
//	aggregator → node: Result (win/lose; winners receive payment + model)
//	winner → aggregator: Update (trained parameters + local sample count)
//	aggregator → node: Done (terminates the session)
//
// Nodes that miss deadlines are skipped for the round; winners that breach
// the contract (no Update before the deadline) are blacklisted, matching the
// paper's defaulter handling.
package transport

import (
	"errors"
	"fmt"

	"fmore/internal/auction"
)

// MsgKind discriminates Envelope payloads.
type MsgKind int

const (
	// KindHello registers an edge node with the aggregator.
	KindHello MsgKind = iota + 1
	// KindAsk broadcasts the round's scoring rule and K.
	KindAsk
	// KindBid carries one sealed bid.
	KindBid
	// KindResult tells a node whether it won and, if so, carries the global
	// model and payment.
	KindResult
	// KindUpdate returns a winner's locally trained parameters.
	KindUpdate
	// KindDone terminates the session.
	KindDone
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindAsk:
		return "ask"
	case KindBid:
		return "bid"
	case KindResult:
		return "result"
	case KindUpdate:
		return "update"
	case KindDone:
		return "done"
	default:
		return fmt.Sprintf("MsgKind(%d)", int(k))
	}
}

// Hello registers a node.
type Hello struct {
	NodeID int
}

// Ask is the round's bid ask.
type Ask struct {
	Round int
	K     int
	Rule  auction.RuleSpec
}

// Bid is one sealed bid.
type Bid struct {
	Round     int
	NodeID    int
	Qualities []float64
	Payment   float64
	// Declined marks a node that sits the round out (e.g. IR violation).
	Declined bool
}

// Result tells a node the round's outcome.
type Result struct {
	Round int
	Won   bool
	// Payment and Params are set only for winners.
	Payment float64
	Params  []float64
	// Samples asks the winner to train on (up to) this many local samples;
	// 0 means the node's own offer.
	Samples int
}

// Update is a winner's trained model.
type Update struct {
	Round      int
	NodeID     int
	Params     []float64
	NumSamples int
	TrainLoss  float64
}

// Done terminates a session; FinalAccuracy is informational.
type Done struct {
	Rounds        int
	FinalAccuracy float64
}

// Envelope is the single wire type: Kind selects which pointer is set. A
// struct-of-pointers avoids gob interface registration while keeping each
// message strongly typed.
type Envelope struct {
	Kind   MsgKind
	Hello  *Hello
	Ask    *Ask
	Bid    *Bid
	Result *Result
	Update *Update
	Done   *Done
}

// ErrUnexpectedMessage reports a protocol-order violation.
var ErrUnexpectedMessage = errors.New("transport: unexpected message")

// Validate checks that exactly the payload matching Kind is present.
func (e *Envelope) Validate() error {
	var want bool
	switch e.Kind {
	case KindHello:
		want = e.Hello != nil
	case KindAsk:
		want = e.Ask != nil
	case KindBid:
		want = e.Bid != nil
	case KindResult:
		want = e.Result != nil
	case KindUpdate:
		want = e.Update != nil
	case KindDone:
		want = e.Done != nil
	default:
		return fmt.Errorf("%w: unknown kind %v", ErrUnexpectedMessage, e.Kind)
	}
	if !want {
		return fmt.Errorf("%w: kind %v without payload", ErrUnexpectedMessage, e.Kind)
	}
	return nil
}
