// Batched lidar inference entry points for the fleet's batched mode.
//
// A fleet of sensing loops that all run the same perception model on
// one edge device pays, per member, for a tiny forward whose per-call
// fixed costs (weight packing, tensor/arena bookkeeping, pool dispatch)
// dominate. These adapters stack B members' occupancy grids along the
// leading batch axis (nn/batch.hpp) and run ONE model forward — the
// conv kernels pack each layer's weights once per call and spread the
// whole images across the pool — then scatter the per-member rows back.
//
// Bit-exactness: row i of a batched call is bit-identical to the B=1
// call on the same grid (the conv lowering never splits or reorders an
// element's reduction chain when images are added to the batch), so a
// batched core::Fleet serving these is bit-exact per member vs a
// per-loop fleet — the contract core::BatchProcessor requires.
//
// Threading: the wrapped model is NOT thread-safe (layers keep
// last-input state and scratch arenas). Call these from one thread at
// a time — a batched Fleet's one dispatcher does; a per-loop Fleet with
// several workers must give each member its own model copy instead.
#pragma once

#include <vector>

#include "core/fleet.hpp"
#include "lidar/autoencoder.hpp"
#include "lidar/detector.hpp"

namespace s2a::lidar {

/// core::BatchProcessor over OccupancyAutoencoder::reconstruct.
///
/// Observation payload: one flattened (masked) occupancy grid,
/// nz*ny*nx values in [nz][ny][nx] order (a VoxelGrid occupancy
/// tensor's layout). The action is the reconstructed occupancy
/// probability field, same layout. The rng parameter of process() is
/// ignored (deterministic model), as the BatchProcessor contract
/// requires.
class BatchedReconstructionProcessor : public core::BatchProcessor {
 public:
  /// `energy_per_call_j` is metered into the loop's processing-energy
  /// total per member tick, batched or not.
  explicit BatchedReconstructionProcessor(OccupancyAutoencoder& ae,
                                          double energy_per_call_j = 0.0);

  std::vector<double> process(const core::Observation& obs,
                              Rng& rng) override;
  std::vector<std::vector<double>> process_batch(
      const std::vector<const core::Observation*>& obs) override;
  double energy_per_call_j() const override { return energy_per_call_j_; }

  /// Grid shape served ([nz, ny, nx]); every payload must match.
  const std::vector<int>& sample_shape() const { return shape_; }

 private:
  OccupancyAutoencoder& ae_;
  std::vector<int> shape_;
  double energy_per_call_j_ = 0.0;
};

/// Scene embeddings of B grids in one encoder forward: row i is
/// bit-identical to OccupancyAutoencoder::embedding(grid_i).
/// `grids` is [B, nz, ny, nx]. (The detector-side equivalent is
/// BevDetector::feature_embeddings.)
std::vector<std::vector<double>> batched_embeddings(OccupancyAutoencoder& ae,
                                                    const nn::Tensor& grids);

}  // namespace s2a::lidar
