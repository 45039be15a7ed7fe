package auction

import (
	"fmt"
	"math"
	"math/rand"
)

// Config parameterizes an Auctioneer, the aggregator-side orchestration of
// the three incentive steps (bid ask, bid collection, winner determination).
type Config struct {
	// Rule is the public scoring rule broadcast in the bid ask.
	Rule ScoringRule
	// K is the number of winners per round.
	K int
	// Payment selects first- or second-price payments (default FirstPrice).
	Payment PaymentRule
	// Psi is the ψ-FMore admission probability in (0, 1]; 1 (the default)
	// is plain FMore.
	Psi float64
}

func (c *Config) setDefaults() {
	if c.Payment == 0 {
		c.Payment = FirstPrice
	}
	if c.Psi == 0 {
		c.Psi = 1
	}
}

func (c *Config) validate() error {
	if c.Rule == nil {
		return fmt.Errorf("auction: Config.Rule is required")
	}
	if c.K < 1 {
		return fmt.Errorf("auction: Config.K must be >= 1, got %d", c.K)
	}
	if c.Psi <= 0 || c.Psi > 1 || math.IsNaN(c.Psi) {
		return fmt.Errorf("auction: Config.Psi must be in (0, 1], got %v", c.Psi)
	}
	if c.Payment != FirstPrice && c.Payment != SecondPrice {
		return fmt.Errorf("auction: unknown payment rule %v", c.Payment)
	}
	return nil
}

// Auctioneer runs FMore auction rounds for the aggregator. It owns a pooled
// Selector, so a long-lived auctioneer (one per exchange job, one per
// fl.FMoreSelector of the reproduction) runs winner determination with
// reusable scratch buffers round after round. It is not safe for concurrent
// use; give each goroutine its own instance.
type Auctioneer struct {
	cfg Config
	rng *rand.Rand
	sel Selector
}

// NewAuctioneer validates cfg and returns an Auctioneer using rng for
// tie-breaks and ψ-admission draws.
func NewAuctioneer(cfg Config, rng *rand.Rand) (*Auctioneer, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("auction: rng is required")
	}
	return &Auctioneer{cfg: cfg, rng: rng}, nil
}

// Run executes winner determination over the collected sealed bids.
// With Psi < 1 it runs ψ-FMore admission. The selection runs on the
// auctioneer's pooled Selector; the returned Outcome is an owning copy and
// may be retained across rounds.
func (a *Auctioneer) Run(bids []Bid) (Outcome, error) {
	out, err := a.sel.Select(SelectionRequest{
		Rule:    a.cfg.Rule,
		Bids:    bids,
		K:       a.cfg.K,
		Psi:     a.cfg.Psi,
		Payment: a.cfg.Payment,
	}, a.rng)
	if err != nil {
		return Outcome{}, err
	}
	return out.Clone(), nil
}

// Config returns the auctioneer's configuration (rule, K, payment, ψ).
func (a *Auctioneer) Config() Config { return a.cfg }
