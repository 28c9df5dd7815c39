#include "nn/activations.hpp"

#include <cmath>

#include "runtime/thread_pool.hpp"

namespace mtlsplit::nn {

namespace {
// Activation maps are memory-bound; large chunks keep pool overhead small.
constexpr int64_t kActGrain = 1 << 15;
}  // namespace

Tensor Activation::forward(const Tensor& x) {
  cached_input_ = x;
  Tensor out(x.shape());
  const float* px = x.data();
  float* po = out.data();
  runtime::parallel_for(0, x.numel(), kActGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i) po[i] = f(px[i]);
                        });
  return out;
}

Tensor Activation::backward(const Tensor& grad_out) {
  // name() builds a string, so it is formatted only here, on the throw.
  if (grad_out.shape() != cached_input_.shape())
    throw std::invalid_argument(
        msg_cat(name(), "::backward: gradient shape mismatch"));
  Tensor out(grad_out.shape());
  const float* pg = grad_out.data();
  const float* px = cached_input_.data();
  float* po = out.data();
  runtime::parallel_for(0, grad_out.numel(), kActGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (int64_t i = lo; i < hi; ++i)
                            po[i] = pg[i] * df(px[i]);
                        });
  return out;
}

float Sigmoid::f(float x) const { return 1.0f / (1.0f + std::exp(-x)); }
float Sigmoid::df(float x) const {
  const float s = f(x);
  return s * (1.0f - s);
}

float HardSigmoid::f(float x) const {
  if (x <= -3.0f) return 0.0f;
  if (x >= 3.0f) return 1.0f;
  return x / 6.0f + 0.5f;
}
float HardSigmoid::df(float x) const {
  return (x > -3.0f && x < 3.0f) ? 1.0f / 6.0f : 0.0f;
}

float HardSwish::f(float x) const {
  if (x <= -3.0f) return 0.0f;
  if (x >= 3.0f) return x;
  return x * (x + 3.0f) / 6.0f;
}
float HardSwish::df(float x) const {
  if (x <= -3.0f) return 0.0f;
  if (x >= 3.0f) return 1.0f;
  return (2.0f * x + 3.0f) / 6.0f;
}

float SiLU::f(float x) const { return x / (1.0f + std::exp(-x)); }
float SiLU::df(float x) const {
  const float s = 1.0f / (1.0f + std::exp(-x));
  return s * (1.0f + x * (1.0f - s));
}

}  // namespace mtlsplit::nn
