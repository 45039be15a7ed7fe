// Package fmore is a from-scratch Go reproduction of "FMore: An Incentive
// Scheme of Multi-dimensional Auction for Federated Learning in MEC"
// (Zeng, Zhang, Wang, Chu — ICDCS 2020, arXiv:2002.09699).
//
// The implementation lives in internal packages:
//
//	internal/auction    the multi-dimensional K-winner procurement auction,
//	                    Nash equilibrium bidding (Theorem 1, Euler method),
//	                    ψ-FMore, and the aggregator guidance of Prop. 4
//	internal/fl         FedAvg engine with FMore/RandFL/FixFL selection
//	internal/ml         pure-Go CNN/LSTM training substrate
//	internal/data       synthetic MNIST/Fashion/CIFAR/HPNews stand-ins and
//	                    non-IID partitioning
//	internal/mec        edge-node population, resource dynamics, timing model
//	internal/dist       the θ prior distributions of the bidding game
//	internal/transport  the aggregator/edge-node TCP protocol
//	internal/cluster    the 1 + 31-node deployment harness (Figs. 12-13)
//	internal/exchange   the concurrent multi-job auction exchange service:
//	                    sharded bidder registry, per-job round state
//	                    machines, HTTP/JSON front end
//	internal/sim        experiment harness regenerating Figs. 4-13
//
// Entry points: cmd/fmore-sim, cmd/fmore-bench, cmd/fmore-cluster,
// cmd/fmore-exchange, cmd/aggregator, cmd/edgenode, and the runnable
// programs in examples/.
// The benchmark suite in bench_test.go regenerates every evaluation figure.
package fmore
