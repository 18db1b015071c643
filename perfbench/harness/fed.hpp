// The federated round workload: hierarchical FedAvg over a 1,000-client
// tree (64 clients per edge, 32 edges per region) in the
// constrained-uplink configuration — a seeded uniform cohort, top-25%
// deltas with error feedback, uplink bytes billed through s2a::net.
//
// The engine exposes no per-round boundary, so the unit of work is an
// episode: one run_federated_hier call of `rounds` closed-loop rounds
// (each trains on the model and error-feedback residuals the previous
// one left). Episode e's generator is derived from (seed, e).
#pragma once

#include <cstdint>
#include <vector>

#include "federated/hierarchy.hpp"
#include "stats.hpp"

namespace s2a::perfbench {

struct FedConfig {
  int clients = 1000;
  int samples_per_client = 40;
  int train_samples = 8000;  ///< shards index into this pool cyclically
  int test_samples = 600;
  int features = 12;
  int classes = 4;
  double separation = 3.0;
  int rounds = 4;  ///< rounds per episode
  federated::HierConfig hier;

  static FedConfig standard();
  static FedConfig tiny();
};

struct FedFixture {
  FedConfig cfg;
  sim::ClassificationDataset train, test;
  std::vector<std::vector<int>> shards;
  std::vector<federated::HardwareProfile> fleet;

  /// Data, shards and the hardware fleet: a fixed corpus, so quality
  /// depends on the workload seed only through the episodes' streams
  /// (cohorts, client training, initial model).
  static FedFixture make(const FedConfig& cfg);
  /// Episode `e` of the workload: its generator is derived from (seed, e).
  federated::HierResult episode(std::uint64_t seed, long e,
                                const federated::HierConfig& hier) const;
  federated::HierResult episode(std::uint64_t seed, long e) const {
    return episode(seed, e, cfg.hier);
  }
};

/// Folds everything a round leaves observable into `d`: per-round
/// accuracy and survivors, energy, latency, wire bytes, participation.
void digest_result(Digest& d, const federated::HierResult& r);

}  // namespace s2a::perfbench
