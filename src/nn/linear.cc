#include "nn/linear.h"

#include <algorithm>
#include <utility>

#include "nn/init.h"
#include "tensor/arena.h"
#include "util/logging.h"

namespace poe {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  weight_ = Parameter("linear.weight",
                      HeNormal({out_features, in_features}, in_features, rng));
  if (has_bias_) {
    bias_ = Parameter("linear.bias",
                      FanInUniform({out_features}, in_features, rng));
  }
}

Tensor Linear::Forward(const Tensor& input, bool training) {
  return ForwardImpl(input, training, /*fuse_relu=*/false);
}

Tensor Linear::ForwardFusedRelu(const Tensor& input) {
  return ForwardImpl(input, /*training=*/false, /*fuse_relu=*/true);
}

Tensor Linear::ForwardImpl(const Tensor& input, bool training,
                           bool fuse_relu) {
  if (int8_serving_) {
    POE_CHECK(!training) << "int8-serving Linear is inference-only";
    return ForwardInt8(input, fuse_relu);
  }
  POE_CHECK_EQ(input.ndim(), 2);
  POE_CHECK_EQ(input.dim(1), in_features_);
  if (observe_act_ && !training) {
    observed_act_max_ =
        std::max(observed_act_max_, MaxAbs(input.data(), input.numel()));
  }
  const int64_t batch = input.dim(0);
  Tensor output({batch, out_features_});
  GemmEpilogue ep;
  ep.col_bias = has_bias_ ? bias_.value.data() : nullptr;
  ep.relu = fuse_relu;
  // y = x (batch x in) * W^T (in x out), bias/ReLU fused into the store.
  // Pack-once fast path: bitwise identical to the per-call-pack GEMM.
  POE_CHECK(!training || !f32_packed_.load(std::memory_order_relaxed))
      << "prepacked Linear is inference-only (packed panels would go stale)";
  const GemmB weights =
      !training && f32_packed_.load(std::memory_order_acquire)
          ? GemmB::Packed(packed_w_)
          : GemmB::Raw(in_features_, out_features_, weight_.value.data(),
                       /*trans=*/true);
  Gemm(GemmA::Raw(batch, in_features_, input.data()), weights, output.data(),
       ep, /*parallel=*/true);
  if (training) cached_input_ = input;
  return output;
}

// Int8 serving forward: per-tensor activation quantization (static
// calibrated scale when present, else a dynamic max-abs pass), then
// y = x_q * W_q^T with per-output-feature dequantization, bias, and ReLU
// fused into the GEMM's int32 -> f32 output pass. The weight panels were
// packed at conversion time, so no per-call B pack — and no raw weight
// copy — exists on this path.
Tensor Linear::ForwardInt8(const Tensor& input, bool fuse_relu) {
  POE_CHECK_EQ(input.ndim(), 2);
  POE_CHECK_EQ(input.dim(1), in_features_);
  const int64_t batch = input.dim(0);
  Tensor output({batch, out_features_});

  const float act_scale =
      act_scale_ > 0.0f ? act_scale_
                        : SymmetricScaleS8(input.data(), input.numel());

  ScratchScope scope;
  int8_t* q_in = AllocS8(scope, input.numel());
  QuantizeBufferS8(input.data(), input.numel(), 1.0f / act_scale, q_in);

  GemmS8Epilogue ep;
  ep.scale = act_scale;
  ep.col_scale = wscales_.data();
  ep.col_bias = has_bias_ ? bias_.value.data() : nullptr;
  ep.relu = fuse_relu;
  GemmS8(GemmS8A::Raw(batch, in_features_, q_in),
         GemmS8B::Packed(packed_qw_), output.data(), ep, /*parallel=*/true);
  return output;
}

void Linear::PrepareInt8Serving() {
  if (int8_serving_) return;
  wscales_.resize(out_features_);
  std::vector<int8_t> q(static_cast<size_t>(out_features_ * in_features_));
  const float* wp = weight_.value.data();
  for (int64_t of = 0; of < out_features_; ++of) {
    const float* row = wp + of * in_features_;
    wscales_[of] = SymmetricScaleS8(row, in_features_);
    QuantizeBufferS8(row, in_features_, 1.0f / wscales_[of],
                     q.data() + of * in_features_);
  }
  FinishInt8Setup(q.data());
}

void Linear::FinishInt8Setup(const int8_t* values) {
  // Serialized against Prepack: pool copies share master modules, so a
  // conversion through one copy must not race another copy's prepacking
  // of the same layer.
  std::lock_guard<std::mutex> lock(prepack_mu_);
  // Pack once into the kernel-layout op(B) panels before int8_serving_
  // publishes; only the packed form stays resident (persistence exports
  // the portable row-major form via Unpack).
  packed_qw_ = PackedS8BWeights::Pack(/*trans_b=*/true, in_features_,
                                      out_features_, values);
  // Release the f32 weight storage for good, along with any now-stale
  // f32 packed panels.
  f32_packed_.store(false, std::memory_order_release);
  packed_w_ = PackedBWeights();
  weight_.value = Tensor();
  weight_.grad = Tensor();
  weight_.trainable = false;
  int8_serving_ = true;
}

void Linear::Prepack(ServingPrecision precision) {
  std::lock_guard<std::mutex> lock(prepack_mu_);
  // Packs the form the layer CURRENTLY serves (an int8-converted layer
  // packs int8 even under a caller still labeled f32 — pool copies share
  // masters, so a stale copy may acquire after another converted them).
  // The reverse direction is a genuine ordering bug.
  POE_CHECK(precision != ServingPrecision::kInt8 || int8_serving_)
      << "Prepack(kInt8) requires PrepareInt8Serving first";
  // Int8 panels were built at conversion (FinishInt8Setup); nothing to do.
  if (int8_serving_) return;
  if (f32_packed_.load(std::memory_order_relaxed)) return;
  packed_w_ = PackedBWeights::Pack(/*trans_b=*/true, in_features_,
                                   out_features_, weight_.value.data());
  f32_packed_.store(true, std::memory_order_release);
}

int64_t Linear::PackedWeightBytes() {
  // f32 panels only: the int8 panels ARE the serving weight and are
  // already counted by Int8WeightBytes (module.h's accounting contract).
  return f32_packed_.load(std::memory_order_acquire) ? packed_w_.nbytes()
                                                     : 0;
}

void Linear::BeginActivationCalibration() {
  observe_act_ = true;
  observed_act_max_ = 0.0f;
}

void Linear::FinishActivationCalibration() {
  observe_act_ = false;
  // Zero observation -> stay dynamic (see Conv2d: a frozen guess would
  // saturate real activations and be persisted with the pool).
  act_scale_ = observed_act_max_ > 0.0f ? observed_act_max_ / 127.0f : 0.0f;
}

Result<Int8WeightState> Linear::ExportInt8State() const {
  if (!int8_serving_) {
    return Status::FailedPrecondition(
        "Linear has no int8 state to export (still serving f32)");
  }
  Int8WeightState state;
  state.rows = out_features_;
  state.cols = in_features_;
  state.values.resize(static_cast<size_t>(out_features_ * in_features_));
  packed_qw_.Unpack(state.values.data());  // portable row-major form
  state.scales = wscales_;
  state.act_scale = act_scale_;
  return state;
}

Status Linear::AdoptInt8State(Int8WeightState state) {
  if (int8_serving_) {
    return Status::FailedPrecondition("Linear already serves int8");
  }
  if (state.rows != out_features_ || state.cols != in_features_ ||
      static_cast<int64_t>(state.values.size()) !=
          out_features_ * in_features_ ||
      static_cast<int64_t>(state.scales.size()) != out_features_) {
    return Status::Corruption("int8 state shape mismatch for Linear");
  }
  wscales_ = std::move(state.scales);
  act_scale_ = state.act_scale;
  // FinishInt8Setup packs straight into the serving panels: an adopted
  // layer (int8 pool load) never runs a per-call B pack.
  FinishInt8Setup(state.values.data());
  return Status::OK();
}

int64_t Linear::Int8WeightBytes() const {
  if (!int8_serving_) return 0;
  return packed_qw_.nbytes() +
         static_cast<int64_t>(wscales_.size() * sizeof(float));
}

Tensor Linear::Backward(const Tensor& grad_output) {
  POE_CHECK(!int8_serving_) << "int8-serving Linear cannot train";
  POE_CHECK(!f32_packed_.load(std::memory_order_relaxed))
      << "prepacked Linear cannot train";
  POE_CHECK(cached_input_.defined());
  const int64_t batch = cached_input_.dim(0);
  POE_CHECK_EQ(grad_output.dim(0), batch);
  POE_CHECK_EQ(grad_output.dim(1), out_features_);

  // dW += dY^T (out x batch) * X (batch x in).
  GemmEpilogue accumulate;
  accumulate.accumulate = true;
  Gemm(GemmA::Raw(out_features_, batch, grad_output.data(), /*trans=*/true),
       GemmB::Raw(batch, in_features_, cached_input_.data()),
       weight_.grad.data(), accumulate, /*parallel=*/true);
  if (has_bias_) {
    float* db = bias_.grad.data();
    const float* g = grad_output.data();
    for (int64_t b = 0; b < batch; ++b)
      for (int64_t j = 0; j < out_features_; ++j)
        db[j] += g[b * out_features_ + j];
  }
  // dX = dY (batch x out) * W (out x in).
  Tensor grad_input({batch, in_features_});
  Gemm(GemmA::Raw(batch, out_features_, grad_output.data()),
       GemmB::Raw(out_features_, in_features_, weight_.value.data()),
       grad_input.data(), GemmEpilogue{}, /*parallel=*/true);
  return grad_input;
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (has_bias_) out->push_back(&bias_);
}

}  // namespace poe
