// Package auction implements FMore, the multi-dimensional procurement
// auction with K winners from "FMore: An Incentive Scheme of Multi-dimensional
// Auction for Federated Learning in MEC" (Zeng et al., ICDCS 2020).
//
// The auction proceeds in three incentive steps per federated round (§III-A):
//
//  1. Bid ask — the aggregator broadcasts a quasi-linear scoring rule
//     S(q₁..qₘ, p) = s(q₁..qₘ) − p. Supported s(·) families are the perfect
//     substitution (additive), perfect complementary (Leontief/min) and
//     Cobb–Douglas utility functions.
//  2. Bid collection — each edge node privately knows its cost parameter θ
//     (i.i.d. with CDF F on [θ̲, θ̄]) and a cost function c(q, θ) satisfying
//     the single-crossing conditions. A rational node bids the Nash
//     equilibrium strategy of Theorem 1: quality qˢ(θ) = argmax s(q) − c(q, θ)
//     (Che's Theorem 1 — quality separates from payment) and payment
//     pˢ(θ) = c(qˢ, θ) + ∫₀ᵘ g(x)dx / g(u), computed numerically with the
//     Euler method as the paper prescribes (quadrature and RK4 variants are
//     provided as cross-checks).
//  3. Winner determination — the aggregator keeps the K best scores
//     (first-price payments by default, second-price optionally; ties broken
//     by coin flip). The ψ-FMore extension (§III-C) admits each node in score
//     order only with probability ψ, trading selection pressure for data
//     diversity.
//
// # The selection pipeline
//
// All winner-determination variants run through one configurable core:
// build a SelectionRequest (rule, bids, K, ψ, payment rule) and call
// Selector.Select. The pipeline stages are
//
//	score → rank → select → pay
//
// The score stage validates each bid, evaluates S(qᵢ, pᵢ) and draws exactly
// one tiebreak key per bid in input order. There is one way to score a
// slate, ScoreBids, and the stage is a pass of it: below 4,096 bids
// (2·spanMinBids) or at GOMAXPROCS 1 a loop on the calling goroutine; from
// there up the slate is cut into at most GOMAXPROCS contiguous spans of at
// least 2,048 bids, the caller scores the first and one goroutine each of
// the others, and the first invalid bid of the whole slate is reported
// exactly as the loop would report it. The choice follows from the slate's
// size and the CPU count alone — it is not an option — and changes no bit
// of any score (cut_test.go). A ScoringRule's Value must therefore be safe
// for concurrent calls; every rule in the tree is a value type that only
// reads its parameters.
//
// The rank stage is a bounded partial top-K selection: a size-K min-heap
// over (score, tiebreak, position) that also tracks the (K+1)-th reference score second-price
// payments need, for O(N log K) winner determination at K ≪ N. It decides
// on the score first: a bid scoring strictly below both the heap's root and
// the best excluded candidate changes neither, whatever its tiebreak, and is
// passed over before its record is built (a NaN score compares false and
// takes the full comparison). ψ-admission, which can look past the K-th
// candidate, falls back to a full O(N log N) in-place heapsort over the same
// pooled buffers.
//
// # One definition of s(q)
//
// kernel.go defines s(q) once per built-in family (additiveValue,
// leontiefValue, cobbDouglasValue). The rules' Value methods, Score and
// ScoreBids — Score over a slate, with the rule kind resolved once per
// span instead of an interface call and a CheckDims per bid — all end in
// those three functions, so a score has the same bits whichever way it was
// computed. Normalized and caller-defined rules evaluate through
// Value; Normalized.Value allocates nothing up to 8 dimensions over a
// built-in family.
//
// A Cobb–Douglas factor qᵉ is math.Pow(q, e), bit for bit, but is not
// always computed by calling it. Three identities are read off math.Pow's
// portable source (go1.24):
// Pow(q, 1) returns q for every q; Pow(q, 0.5) returns Sqrt(q) for finite
// q > 0 (not for −0, where Pow gives +0 and Sqrt −0); and for finite q > 0
// and 0 < e < 0.5 it returns Ldexp(Exp(e·Log(q)), 0), whose Ldexp is the
// identity. Those three cases skip Pow's special-case ladder, Modf, Frexp
// and squaring loop — about half its time. Everything else (q of 0, NaN or
// ±Inf, exponents in (0.5, 1) or above 1, and every factor on s390x, whose
// assembly Pow the identities were not read from) calls math.Pow. The
// proof obligations are tests: a frozen math.Pow-only copy of the three
// families in kernel_test.go, a property test and FuzzScoreKernel that
// require math.Float64bits equality of Value, Score, ScoreBids and Select
// against it over random and hostile inputs, and a sweep of the factor
// itself. A Go release that changed math.Pow's decomposition would fail
// them; the fix is to delete the shortcut, not to touch the reference.
//
// Buffer reuse rules: a Selector owns all scratch memory, so a long-lived
// caller (one Selector per auction stream) runs selections with zero
// steady-state allocations. The returned Outcome aliases the selector's
// buffers and the request's bids and is valid only until the next Select
// call; Outcome.Clone produces an owning copy in three allocations (winner
// records, one backing array for every winner's qualities, scores). The
// package-level Select and the Auctioneer's Run return such owning
// outcomes: memory written once and never reused, so a caller that
// retains outcomes round after round (the exchange's per-job history) may
// share them with any number of readers as long as nobody mutates them.
//
// Select, Selector.Select (one-shot, pooled) and Auctioneer.Run (stateful:
// one seeded rng whose position carries from call to call) are the only
// winner-determination entry points. They are bit-for-bit compatible with
// the original full-sort implementation — identical Outcomes, identical rng
// draw order — which the exchange's write-ahead-log replay depends on and a
// seeded equivalence property test against a frozen copy (reference_test.go)
// enforces.
//
// # Wire specs
//
// spec.go holds the JSON-serializable descriptions of the package's
// constructors — RuleSpec (scoring rules), CostSpec (cost families),
// DistSpec (θ distributions) and EquilibriumSpec (a Theorem 1 solve) — each
// with a Build method that validates and constructs, and SpecForRule as the
// inverse for rules. Every wire form that names a rule (the exchange's /v1
// job body, its WAL and snapshot) embeds these types, so the field names
// and JSON tags are part of the on-disk format.
//
// The theoretical results of §IV are exposed as executable artifacts:
// expected-profit curves (Theorems 2 and 3), social surplus / Pareto
// efficiency (Theorem 4), incentive compatibility (Theorem 5), ψ-neutrality
// under identical θ (Proposition 2), quality/payment separation
// (Proposition 3), and the aggregator's expected-utility resource-mix
// guidance (Proposition 4).
package auction
