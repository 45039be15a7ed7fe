package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fmore/internal/auction"
	"fmore/internal/ml"
)

// ServerConfig parameterizes the aggregator server.
type ServerConfig struct {
	// Listener accepts node connections; the caller owns its lifecycle
	// (pass a ":0" listener in tests).
	Listener net.Listener
	// ExpectNodes is how many registrations to wait for before training.
	ExpectNodes int
	// RegisterTimeout bounds the whole registration phase.
	RegisterTimeout time.Duration
	// Rounds is the number of federated rounds to run.
	Rounds int
	// K is the number of auction winners per round.
	K int
	// Rule is the broadcast scoring rule (must be serializable via
	// auction.SpecForRule).
	Rule auction.ScoringRule
	// Payment is the payment rule (default first-price).
	Payment auction.PaymentRule
	// Psi enables ψ-FMore when < 1 (default 1).
	Psi float64
	// Global is the aggregator's model, trained in place.
	Global ml.Classifier
	// Test is the evaluation set.
	Test []ml.Sample
	// BidTimeout bounds bid collection per round ("when the timer with a
	// predefined threshold expires, the aggregator finishes bid collection").
	BidTimeout time.Duration
	// UpdateTimeout bounds waiting for winner updates; a winner that misses
	// it is blacklisted (contract breach).
	UpdateTimeout time.Duration
	// SendTimeout bounds every outbound message.
	SendTimeout time.Duration
	// Seed drives auction tie-breaks.
	Seed int64
	// RandomSelection switches the server to the RandFL baseline: K bidders
	// are drawn uniformly (no payments), while bid scores are still recorded
	// for score-distribution analysis (Fig. 8).
	RandomSelection bool
}

func (c *ServerConfig) setDefaults() {
	if c.RegisterTimeout == 0 {
		c.RegisterTimeout = 10 * time.Second
	}
	if c.BidTimeout == 0 {
		c.BidTimeout = 10 * time.Second
	}
	if c.UpdateTimeout == 0 {
		c.UpdateTimeout = 60 * time.Second
	}
	if c.SendTimeout == 0 {
		c.SendTimeout = 10 * time.Second
	}
	if c.Psi == 0 {
		c.Psi = 1
	}
	if c.Payment == 0 {
		c.Payment = auction.FirstPrice
	}
}

func (c *ServerConfig) validate() error {
	if c.Listener == nil {
		return errors.New("transport: ServerConfig.Listener is required")
	}
	if c.ExpectNodes < 1 {
		return fmt.Errorf("transport: ExpectNodes must be >= 1, got %d", c.ExpectNodes)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("transport: Rounds must be >= 1, got %d", c.Rounds)
	}
	if c.K < 1 {
		return fmt.Errorf("transport: K must be >= 1, got %d", c.K)
	}
	if c.Rule == nil || c.Global == nil || len(c.Test) == 0 {
		return errors.New("transport: Rule, Global and Test are required")
	}
	return nil
}

// ServerRound records one aggregator round.
type ServerRound struct {
	Round        int
	Accuracy     float64
	Loss         float64
	SelectedIDs  []int
	AllScores    []float64
	TotalPayment float64
	// WallTimeSec is the measured wall-clock duration of the round.
	WallTimeSec float64
	// TrainSamples is the total samples reported by winners.
	TrainSamples int
}

// ServerReport is the outcome of a full server run.
type ServerReport struct {
	Rounds []ServerRound
	// Blacklisted lists node IDs dropped for contract breach.
	Blacklisted []int
	// FinalAccuracy repeats the last round's accuracy.
	FinalAccuracy float64
}

// nodeSession is one registered node connection.
type nodeSession struct {
	id    int
	codec *Codec
	alive bool
}

// Server is the FMore aggregator over TCP.
type Server struct {
	cfg   ServerConfig
	spec  auction.RuleSpec
	nodes []*nodeSession
	rng   *rand.Rand
}

// NewServer validates the configuration.
func NewServer(cfg ServerConfig) (*Server, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec, err := auction.SpecForRule(cfg.Rule)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, spec: spec, rng: rand.New(rand.NewSource(cfg.Seed + 1))}, nil
}

// randomOutcome implements the RandFL baseline: K uniform winners with no
// payments; scores are still evaluated for telemetry.
func (s *Server) randomOutcome(bids []auction.Bid) (auction.Outcome, error) {
	scores := make([]float64, len(bids))
	for i, b := range bids {
		sc, err := auction.Score(s.cfg.Rule, b.Qualities, b.Payment)
		if err != nil {
			return auction.Outcome{}, err
		}
		scores[i] = sc
	}
	k := s.cfg.K
	if k > len(bids) {
		k = len(bids)
	}
	perm := s.rng.Perm(len(bids))[:k]
	out := auction.Outcome{Scores: scores}
	for _, idx := range perm {
		out.Winners = append(out.Winners, auction.Winner{
			Bid:     bids[idx].Clone(),
			Score:   scores[idx],
			Payment: 0,
		})
	}
	return out, nil
}

// Run executes registration, all training rounds, and shutdown, returning
// the per-round report.
func (s *Server) Run() (*ServerReport, error) {
	if err := s.register(); err != nil {
		return nil, err
	}
	defer s.closeAll()

	auctioneer, err := auction.NewAuctioneer(auction.Config{
		Rule:    s.cfg.Rule,
		K:       s.cfg.K,
		Payment: s.cfg.Payment,
		Psi:     s.cfg.Psi,
	}, rand.New(rand.NewSource(s.cfg.Seed)))
	if err != nil {
		return nil, err
	}

	report := &ServerReport{}
	for round := 1; round <= s.cfg.Rounds; round++ {
		rm, err := s.runRound(round, auctioneer, report)
		if err != nil {
			return nil, fmt.Errorf("transport: round %d: %w", round, err)
		}
		report.Rounds = append(report.Rounds, rm)
	}
	if len(report.Rounds) > 0 {
		report.FinalAccuracy = report.Rounds[len(report.Rounds)-1].Accuracy
	}
	s.broadcastDone(report)
	return report, nil
}

// register accepts connections until ExpectNodes hellos arrive or the
// registration deadline passes. An acceptor goroutine hands each connection
// to a handshake goroutine; the main loop blocks on completed handshakes so
// it never re-enters Accept while registrations are still in flight.
func (s *Server) register() error {
	deadline := time.Now().Add(s.cfg.RegisterTimeout)
	if dl, ok := s.cfg.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		if err := dl.SetDeadline(deadline); err != nil {
			return fmt.Errorf("transport: listener deadline: %w", err)
		}
	}
	sessions := make(chan *nodeSession, s.cfg.ExpectNodes*2)
	go func() {
		for {
			conn, err := s.cfg.Listener.Accept()
			if err != nil {
				return // deadline hit or listener closed
			}
			go func(conn net.Conn) {
				codec := NewCodec(conn)
				env, err := codec.Recv(time.Until(deadline))
				if err != nil || env.Kind != KindHello {
					_ = codec.Close()
					return
				}
				sessions <- &nodeSession{id: env.Hello.NodeID, codec: codec, alive: true}
			}(conn)
		}
	}()

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for len(s.nodes) < s.cfg.ExpectNodes {
		select {
		case sess := <-sessions:
			s.nodes = append(s.nodes, sess)
		case <-timer.C:
			return fmt.Errorf("transport: only %d/%d nodes registered before deadline",
				len(s.nodes), s.cfg.ExpectNodes)
		}
	}
	// Stop accepting promptly and turn away stragglers.
	if dl, ok := s.cfg.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		_ = dl.SetDeadline(time.Now())
	}
	for {
		select {
		case sess := <-sessions:
			_ = sess.codec.Close()
		default:
			return nil
		}
	}
}

// runRound executes one full auction + training round.
func (s *Server) runRound(round int, auctioneer *auction.Auctioneer, report *ServerReport) (ServerRound, error) {
	start := time.Now()
	rm := ServerRound{Round: round}

	// Phase 1: broadcast the bid ask.
	ask := &Envelope{Kind: KindAsk, Ask: &Ask{Round: round, K: s.cfg.K, Rule: s.spec}}
	s.parallelOverAlive(func(n *nodeSession) {
		if err := n.codec.Send(ask, s.cfg.SendTimeout); err != nil {
			n.alive = false
		}
	})

	// Phase 2: collect sealed bids until the timer expires.
	type bidResult struct {
		sess *nodeSession
		bid  *Bid
	}
	var mu sync.Mutex
	var bids []bidResult
	s.parallelOverAlive(func(n *nodeSession) {
		env, err := n.codec.Recv(s.cfg.BidTimeout)
		if err != nil || env.Kind != KindBid {
			// Missing the bid window only skips this round; the node may
			// recover next round.
			return
		}
		if env.Bid.Declined {
			return
		}
		mu.Lock()
		bids = append(bids, bidResult{sess: n, bid: env.Bid})
		mu.Unlock()
	})
	if len(bids) == 0 {
		// No participation: evaluate and move on (the paper's aggregator
		// would also idle the round).
		loss, acc, err := s.cfg.Global.Evaluate(s.cfg.Test)
		if err != nil {
			return rm, err
		}
		rm.Loss, rm.Accuracy = loss, acc
		rm.WallTimeSec = time.Since(start).Seconds()
		return rm, nil
	}

	auctionBids := make([]auction.Bid, len(bids))
	byID := make(map[int]*nodeSession, len(bids))
	for i, b := range bids {
		auctionBids[i] = auction.Bid{NodeID: b.bid.NodeID, Qualities: b.bid.Qualities, Payment: b.bid.Payment}
		byID[b.bid.NodeID] = b.sess
	}
	var (
		outcome auction.Outcome
		err     error
	)
	if s.cfg.RandomSelection {
		outcome, err = s.randomOutcome(auctionBids)
	} else {
		outcome, err = auctioneer.Run(auctionBids)
	}
	if err != nil {
		return rm, err
	}
	rm.AllScores = outcome.Scores
	rm.TotalPayment = outcome.TotalPayment()

	// Phase 3: notify every bidder; winners receive the model and payment.
	globalParams := s.cfg.Global.ParamVector()
	winners := make(map[int]float64, len(outcome.Winners)) // id -> payment
	for _, w := range outcome.Winners {
		winners[w.Bid.NodeID] = w.Payment
	}
	s.parallelOverAlive(func(n *nodeSession) {
		if _, bidded := byID[n.id]; !bidded {
			return
		}
		res := &Result{Round: round}
		if pay, won := winners[n.id]; won {
			res.Won, res.Payment, res.Params = true, pay, globalParams
		}
		if err := n.codec.Send(&Envelope{Kind: KindResult, Result: res}, s.cfg.SendTimeout); err != nil {
			n.alive = false
		}
	})

	// Phase 4: collect updates from winners; breaches are blacklisted.
	agg := make([]float64, len(globalParams))
	totalWeight := 0.0
	s.parallelOverAlive(func(n *nodeSession) {
		if _, won := winners[n.id]; !won || !n.alive {
			return
		}
		env, err := n.codec.Recv(s.cfg.UpdateTimeout)
		if err != nil || env.Kind != KindUpdate || len(env.Update.Params) != len(globalParams) {
			n.alive = false
			mu.Lock()
			report.Blacklisted = append(report.Blacklisted, n.id)
			mu.Unlock()
			_ = n.codec.Close()
			return
		}
		mu.Lock()
		w := float64(env.Update.NumSamples)
		if w <= 0 {
			w = 1
		}
		for j, v := range env.Update.Params {
			agg[j] += w * v
		}
		totalWeight += w
		rm.SelectedIDs = append(rm.SelectedIDs, n.id)
		rm.TrainSamples += env.Update.NumSamples
		mu.Unlock()
	})
	if totalWeight > 0 {
		for j := range agg {
			agg[j] /= totalWeight
		}
		if err := s.cfg.Global.SetParamVector(agg); err != nil {
			return rm, err
		}
	}

	loss, acc, err := s.cfg.Global.Evaluate(s.cfg.Test)
	if err != nil {
		return rm, err
	}
	rm.Loss, rm.Accuracy = loss, acc
	rm.WallTimeSec = time.Since(start).Seconds()
	return rm, nil
}

// parallelOverAlive applies fn concurrently to every alive session and waits.
func (s *Server) parallelOverAlive(fn func(*nodeSession)) {
	var wg sync.WaitGroup
	for _, n := range s.nodes {
		if !n.alive {
			continue
		}
		wg.Add(1)
		go func(n *nodeSession) {
			defer wg.Done()
			fn(n)
		}(n)
	}
	wg.Wait()
}

func (s *Server) broadcastDone(report *ServerReport) {
	done := &Envelope{Kind: KindDone, Done: &Done{Rounds: len(report.Rounds), FinalAccuracy: report.FinalAccuracy}}
	s.parallelOverAlive(func(n *nodeSession) {
		_ = n.codec.Send(done, s.cfg.SendTimeout)
	})
}

func (s *Server) closeAll() {
	for _, n := range s.nodes {
		_ = n.codec.Close()
	}
}
