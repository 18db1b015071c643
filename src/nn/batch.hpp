// Batched-forward entry points for cross-loop inference.
//
// Every layer in this library is batch-first (tensor.hpp), so serving B
// tenants with one forward is a gather/scatter problem, not a kernel
// problem: stack B equally-shaped flat samples along a leading batch
// axis, run the network once, and hand each tenant its row back. The
// win is amortization — the conv kernels pack their weight panels once
// per forward call (covering the whole batch) and spread whole images
// across the pool in one pass, instead of paying the per-call fixed
// costs (packing, arena bookkeeping, tensor allocation, pool dispatch)
// once per member.
//
// Bit-exactness contract: row i of the batched output is bit-identical
// to the B=1 forward of sample i, at every thread count. The conv
// lowering guarantees this — each image runs the same serial chains
// whether it is alone or one of B; no element's reduction chain is ever
// split or reordered.
#pragma once

#include <vector>

#include "nn/tensor.hpp"

namespace s2a::nn {

/// Stacks B flat samples into a [B, ...sample_shape] tensor. Every
/// sample must have exactly numel(sample_shape) entries.
Tensor stack_batch(const std::vector<const std::vector<double>*>& samples,
                   const std::vector<int>& sample_shape);

/// Splits a [B, ...] tensor back into its B flat per-sample rows
/// (inverse of stack_batch).
std::vector<std::vector<double>> unstack_batch(const Tensor& batched);

}  // namespace s2a::nn
