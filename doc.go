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
//	internal/exchange   the concurrent multi-job auction exchange service:
//	                    lock-free-read bidder registry, per-job round state
//	                    machines, HTTP/JSON front end
//	internal/wal        the exchange's segmented write-ahead log and snapshot
//	internal/partition  the partition map and the one re-aim rule of a
//	                    partitioned exchange cluster
//	internal/sim        experiment harness regenerating Figs. 4-13, the
//	                    1 + 31-node deployment (Figs. 12-13) included, all
//	                    on the internal/fl engine
//	pkg/api, pkg/client the /v1 wire contract and its Go SDK
//
// Entry points: cmd/fmore-sim, cmd/fmore-bench (every figure and the
// headline numbers), cmd/fmore-exchange, cmd/fmore-router and cmd/edgenode
// (a standalone bidder against a remote exchange); each has a test. The
// paper walkthroughs are Examples with checked output in the packages they
// show (internal/auction, internal/sim, pkg/client), and bench/ is the
// exchange's load harness. bench_test.go times the figure and ablation
// runs.
package fmore
