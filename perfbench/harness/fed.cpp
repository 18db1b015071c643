#include "fed.hpp"

#include "paper_loop.hpp"

namespace s2a::perfbench {

namespace {
constexpr std::uint64_t kDataSeed = 1005;  // fixed: the clients' data set
constexpr std::uint64_t kEpisodeStream = 12;
}  // namespace

FedConfig FedConfig::standard() {
  FedConfig c;
  federated::HierConfig& h = c.hier;
  h.fl.rounds = c.rounds;
  h.fl.local_epochs = 2;
  h.fl.batch = 8;
  h.fl.hidden = 48;
  h.fl.lr = 0.08;
  h.clients_per_edge = 64;
  h.edges_per_region = 32;
  h.sample_mode = federated::SampleMode::kUniform;
  h.sample_fraction = 0.4;
  h.topk_fraction = 0.25;
  h.error_feedback = true;
  h.bill_uplink = true;
  // A client deadline the slowest ~5% of the cohort miss once their
  // uplink is billed: compression buys participation.
  h.fl.client_timeout_s = 0.0067;
  return c;
}

FedConfig FedConfig::tiny() {
  FedConfig c = standard();
  c.clients = 96;
  c.samples_per_client = 24;
  c.train_samples = 480;
  c.test_samples = 120;
  c.rounds = 2;
  c.hier.fl.rounds = c.rounds;
  c.hier.clients_per_edge = 16;
  c.hier.edges_per_region = 4;
  return c;
}

FedFixture FedFixture::make(const FedConfig& cfg) {
  FedFixture fx;
  fx.cfg = cfg;
  Rng rng(kDataSeed);
  // One draw of class means, split into train and test.
  const sim::ClassificationDataset all = sim::make_gaussian_classes(
      cfg.train_samples + cfg.test_samples, cfg.features, cfg.classes, cfg.separation, rng);
  for (sim::ClassificationDataset* part : {&fx.train, &fx.test}) {
    part->feature_dim = all.feature_dim;
    part->num_classes = all.num_classes;
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    sim::ClassificationDataset& part =
        i < static_cast<std::size_t>(cfg.train_samples) ? fx.train : fx.test;
    part.features.push_back(all.features[i]);
    part.labels.push_back(all.labels[i]);
  }
  fx.shards.resize(static_cast<std::size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c)
    for (int j = 0; j < cfg.samples_per_client; ++j)
      fx.shards[static_cast<std::size_t>(c)].push_back(
          (c * cfg.samples_per_client + j) % cfg.train_samples);
  fx.fleet = federated::make_heterogeneous_fleet(cfg.clients, rng);
  return fx;
}

federated::HierResult FedFixture::episode(std::uint64_t seed, long e,
                                          const federated::HierConfig& hier) const {
  Rng rng(derive_seed(seed, static_cast<std::uint64_t>(e), 0, kEpisodeStream));
  return federated::run_federated_hier(federated::FlStrategy::kStaticFl, train, test,
                                       shards, fleet, hier, rng);
}

void digest_result(Digest& d, const federated::HierResult& r) {
  d.add(r.fl.accuracy_per_round);
  d.add(r.fl.total_energy_j);
  d.add(r.fl.total_latency_s);
  d.add(static_cast<std::int64_t>(r.fl.dropped_client_rounds));
  d.add(static_cast<std::int64_t>(r.fl.nonfinite_deltas));
  for (const int s : r.fl.survivors_per_round) d.add(static_cast<std::int64_t>(s));
  d.add(r.hier.bytes_on_wire);
  d.add(r.hier.dense_bytes);
  d.add(static_cast<std::int64_t>(r.hier.sampled_client_rounds));
  for (const int p : r.hier.client_participation) d.add(static_cast<std::int64_t>(p));
}

}  // namespace s2a::perfbench
