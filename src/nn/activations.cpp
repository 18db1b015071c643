#include "nn/activations.hpp"

#include <cmath>

#include "util/check.hpp"

namespace s2a::nn {

Tensor ReLU::forward(const Tensor& x) {
  last_x_ = x;
  Tensor y = x;
  // A select rather than a branch, so the loop vectorizes. -0.0 and NaN
  // fail `< 0.0` and pass through unchanged, as they did with an `if`.
  double* p = y.data();
  for (std::size_t i = 0; i < y.numel(); ++i) p[i] = p[i] < 0.0 ? 0.0 : p[i];
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_x_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (last_x_[i] <= 0.0) dx[i] = 0.0;
  return dx;
}

Tensor LeakyReLU::forward(const Tensor& x) {
  last_x_ = x;
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i)
    if (y[i] < 0.0) y[i] *= slope_;
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_x_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    if (last_x_[i] <= 0.0) dx[i] *= slope_;
  return dx;
}

Tensor Tanh::forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
  last_y_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_y_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= 1.0 - last_y_[i] * last_y_[i];
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x) {
  Tensor y = x;
  for (std::size_t i = 0; i < y.numel(); ++i)
    y[i] = 1.0 / (1.0 + std::exp(-y[i]));
  last_y_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  S2A_CHECK(grad_out.same_shape(last_y_));
  Tensor dx = grad_out;
  for (std::size_t i = 0; i < dx.numel(); ++i)
    dx[i] *= last_y_[i] * (1.0 - last_y_[i]);
  return dx;
}

}  // namespace s2a::nn
