package auction

import (
	"errors"
	"fmt"
)

// PaymentRule selects how winners are paid. The paper supports both the
// first-price and the second-price sealed auction and uses first-price
// "for simplicity" in all experiments.
type PaymentRule int

const (
	// FirstPrice pays each winner its own asked payment.
	FirstPrice PaymentRule = iota + 1
	// SecondPrice pays each winner the highest payment that would still have
	// kept its score at the level of the best excluded score: the winner's
	// payment is raised until its score equals the (K+1)-th score. With fewer
	// than K+1 bids it degenerates to first-price.
	SecondPrice
)

// String implements fmt.Stringer.
func (p PaymentRule) String() string {
	switch p {
	case FirstPrice:
		return "first-price"
	case SecondPrice:
		return "second-price"
	default:
		return fmt.Sprintf("PaymentRule(%d)", int(p))
	}
}

// ErrNoBids reports an auction round with no valid bids.
var ErrNoBids = errors.New("auction: no bids")
