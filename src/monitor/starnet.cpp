#include "monitor/starnet.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/finite.hpp"
#include "util/stats.hpp"

namespace s2a::monitor {

StarNet::StarNet(StarNetConfig config, Rng& rng)
    : cfg_(config), vae_(config.vae, rng) {}

std::vector<double> StarNet::standardize(const std::vector<double>& x) const {
  S2A_CHECK(x.size() == mean_.size());
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = (x[i] - mean_[i]) / stddev_[i];
  return out;
}

void StarNet::fit(const std::vector<std::vector<double>>& clean, Rng& rng) {
  S2A_TRACE_SCOPE_CAT("monitor.starnet_fit", "monitor");
  S2A_CHECK_MSG(clean.size() >= 8, "need enough clean samples to calibrate");
  const std::size_t dim = clean[0].size();
  S2A_CHECK(static_cast<int>(dim) == cfg_.vae.input_dim);

  // Per-dimension standardization statistics.
  mean_.assign(dim, 0.0);
  stddev_.assign(dim, 0.0);
  for (const auto& x : clean)
    for (std::size_t i = 0; i < dim; ++i) mean_[i] += x[i];
  for (auto& m : mean_) m /= static_cast<double>(clean.size());
  for (const auto& x : clean)
    for (std::size_t i = 0; i < dim; ++i)
      stddev_[i] += (x[i] - mean_[i]) * (x[i] - mean_[i]);
  for (auto& s : stddev_)
    s = std::max(1e-6, std::sqrt(s / static_cast<double>(clean.size())));

  std::vector<std::vector<double>> standardized;
  standardized.reserve(clean.size());
  for (const auto& x : clean) standardized.push_back(standardize(x));

  {
    S2A_TRACE_SCOPE_CAT("monitor.vae_fit", "monitor");
    vae_.fit(standardized, cfg_.vae_epochs, cfg_.vae_batch, cfg_.vae_lr, rng);
  }
  fitted_ = true;

  // Calibrate the trust threshold on clean scores.
  S2A_TRACE_SCOPE_CAT("monitor.calibrate", "monitor");
  std::vector<double> scores;
  scores.reserve(clean.size());
  for (const auto& x : standardized) {
    const RegretResult r = likelihood_regret(vae_, x, cfg_.regret, rng);
    scores.push_back(r.regret);
  }
  threshold_ = percentile(std::move(scores), cfg_.threshold_percentile);
}

double StarNet::score(const std::vector<double>& embedding, Rng& rng) {
  S2A_TRACE_SCOPE_CAT("monitor.starnet_score", "monitor");
  S2A_CHECK_MSG(fitted_, "fit() before score()");
  const RegretResult r =
      likelihood_regret(vae_, standardize(embedding), cfg_.regret, rng);
  return r.regret;
}

double StarNetUncertainty::score(const core::Observation& obs) {
  if (!starnet_.fitted()) return 0.0;
  const double threshold = std::max(1e-12, starnet_.threshold());
  return starnet_.score(obs.data, rng_) / threshold;
}

bool StarNet::trusted(const std::vector<double>& embedding, Rng& rng) {
  S2A_CHECK_MSG(fitted_, "fit() before trusted()");
  // Fail closed: likelihood_regret clamps a NaN regret to 0, so a
  // non-finite embedding would score as perfectly in-distribution.
  if (!util::all_finite(embedding)) {
    S2A_COUNTER_ADD("monitor.untrusted", 1);
    S2A_COUNTER_ADD("monitor.untrusted_nonfinite", 1);
    return false;
  }
  const bool ok = score(embedding, rng) <= threshold_;
  // One macro per branch: each call site caches a single instrument.
  if (ok) {
    S2A_COUNTER_ADD("monitor.trusted", 1);
  } else {
    S2A_COUNTER_ADD("monitor.untrusted", 1);
  }
  return ok;
}

}  // namespace s2a::monitor
