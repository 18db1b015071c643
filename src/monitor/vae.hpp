// Variational autoencoder over task-network feature embeddings
// (STARNet's distribution model, Fig. 6): learns the typical distribution
// of clean sensor features so that likelihood regret can flag inputs the
// encoder no longer explains.
#pragma once

#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace s2a::monitor {

struct VaeConfig {
  int input_dim = 16;
  int hidden = 32;
  int latent_dim = 4;
  double kl_weight = 1.0;
};

/// Gaussian encoder q(z|x) = N(µ(x), diag(exp(logvar(x)))) and Gaussian
/// decoder p(x|z) = N(x̂(z), I).
///
/// Non-copyable: `dec_in_`/`dec_out_` point into the layers `decoder_`
/// owns, which a copy would not share.
class Vae {
 public:
  Vae(VaeConfig config, Rng& rng);
  Vae(const Vae&) = delete;
  Vae& operator=(const Vae&) = delete;

  struct Posterior {
    std::vector<double> mu, logvar;
  };
  Posterior encode(const std::vector<double>& x);
  std::vector<double> decode(const std::vector<double>& z);

  /// Deterministic ELBO with z = µ (MAP point): log p(x|µ) − KL(q‖N(0,I))
  /// up to the Gaussian constant. Deterministic so SPSA optimization and
  /// scoring are reproducible.
  ///
  /// Fused and allocation-free: reads the decoder's weights directly and
  /// accumulates every output from 0.0 in ascending input order before
  /// adding the bias — the chain of Dense's GEMM path and of matmul_nt —
  /// so it is bit-identical to scoring decode(µ) under every backend.
  double elbo(std::span<const double> x, std::span<const double> mu,
              std::span<const double> logvar);
  double elbo(const std::vector<double>& x, const Posterior& q) {
    return elbo(x, q.mu, q.logvar);
  }
  /// ELBO under the trained encoder's own posterior.
  double elbo(const std::vector<double>& x);

  /// One reparameterized training step on a batch; returns the batch loss
  /// (negative ELBO). Gradients flow through the sampling noise drawn from
  /// `rng`.
  double train_step(const std::vector<std::vector<double>>& batch,
                    nn::Optimizer& opt, Rng& rng);

  /// Convenience: trains for `epochs` over shuffled minibatches.
  void fit(const std::vector<std::vector<double>>& data, int epochs,
           int batch_size, double lr, Rng& rng);

  std::vector<nn::Tensor*> params();
  std::vector<nn::Tensor*> grads();
  const VaeConfig& config() const { return cfg_; }

 private:
  VaeConfig cfg_;
  nn::Sequential encoder_trunk_;  // x -> hidden
  nn::Dense mu_head_, logvar_head_;
  nn::Sequential decoder_;  // z -> x̂
  nn::Dense* dec_in_ = nullptr;   // decoder_'s latent -> hidden layer
  nn::Dense* dec_out_ = nullptr;  // decoder_'s hidden -> x̂ layer
  std::vector<double> hidden_;    // elbo()'s tanh activations
};

/// Analytic KL(N(µ, e^{logvar}) ‖ N(0, I)).
double gaussian_kl(std::span<const double> mu, std::span<const double> logvar);
inline double gaussian_kl(const std::vector<double>& mu,
                          const std::vector<double>& logvar) {
  return gaussian_kl(std::span<const double>(mu), std::span<const double>(logvar));
}

}  // namespace s2a::monitor
