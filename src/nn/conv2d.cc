#include "nn/conv2d.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "nn/init.h"
#include "tensor/arena.h"
#include "tensor/im2col.h"
#include "util/parallel_for.h"

namespace poe {

namespace {

// Where a forward spends the pool: nowhere, on the batch dimension, or
// inside each item's GEMM.
enum class Schedule { kInline, kBatchParallel, kGemmParallel };

// Inference forwards consult the one fan-out decision: below the threshold
// (the realtime batch-1 query path) everything runs inline. Training keeps
// its batch fan-out at every size. When the pool is used, only one level
// parallelizes: the GEMM's micro-panel loop when it offers more parallelism
// than the batch does and the batch can't fill the workers by itself.
// `parallel_tiles` is the GEMM's task count for its dtype
// (GemmParallelTiles or GemmS8ParallelTiles).
Schedule PickSchedule(int64_t batch, int64_t out_c, int64_t ohw,
                      int64_t ckk, bool training,
                      int64_t (*parallel_tiles)(int64_t, int64_t, int64_t)) {
  if (!training && !ShouldFanOut(batch * out_c * ohw * ckk)) {
    return Schedule::kInline;
  }
  if (batch < NumThreads() && parallel_tiles(out_c, ohw, ckk) > batch) {
    return Schedule::kGemmParallel;
  }
  return Schedule::kBatchParallel;
}

template <typename RunRange>
void RunSchedule(Schedule schedule, int64_t batch, const RunRange& run_range) {
  if (schedule == Schedule::kBatchParallel) {
    ParallelFor(batch, run_range, /*min_chunk=*/1);
  } else {
    run_range(0, batch);
  }
}

// Conv2d::Backward splits the batch into this many chunks at most, at
// every thread count, so its gradient sums never depend on NumThreads()
// or on whether the pool was free.
constexpr int64_t kBackwardChunks = 8;

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t pad, Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      has_bias_(bias) {
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = Parameter("conv.weight",
                      HeNormal({out_channels, fan_in}, fan_in, rng));
  if (has_bias_) {
    bias_ = Parameter("conv.bias", Tensor::Zeros({out_channels}));
  }
}

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  return ForwardImpl(input, training, /*fuse_relu=*/false);
}

Tensor Conv2d::ForwardFusedRelu(const Tensor& input) {
  return ForwardImpl(input, /*training=*/false, /*fuse_relu=*/true);
}

Tensor Conv2d::ForwardImpl(const Tensor& input, bool training,
                           bool fuse_relu) {
  if (int8_serving_) {
    POE_CHECK(!training) << "int8-serving Conv2d is inference-only";
    return ForwardInt8(input, fuse_relu);
  }
  POE_CHECK_EQ(input.ndim(), 4);
  POE_CHECK_EQ(input.dim(1), in_channels_);
  if (observe_act_ && !training) {
    observed_act_max_ =
        std::max(observed_act_max_, MaxAbs(input.data(), input.numel()));
  }
  const int64_t batch = input.dim(0);
  const int64_t h = input.dim(2);
  const int64_t w = input.dim(3);
  const int64_t out_h = ConvOutSize(h, kernel_, pad_, stride_);
  const int64_t out_w = ConvOutSize(w, kernel_, pad_, stride_);
  POE_CHECK_GT(out_h, 0);
  POE_CHECK_GT(out_w, 0);
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t ohw = out_h * out_w;

  Tensor output({batch, out_channels_, out_h, out_w});
  const float* in = input.data();
  float* out = output.data();

  GemmEpilogue ep;
  ep.row_bias = has_bias_ ? bias_.value.data() : nullptr;
  ep.relu = fuse_relu;

  // Pack-once fast path: the persistent weight panels are bitwise
  // identical to the per-call A pack, so the product is too.
  POE_CHECK(!training || !f32_packed_.load(std::memory_order_relaxed))
      << "prepacked Conv2d is inference-only (packed panels would go stale)";
  const GemmA weights =
      !training && f32_packed_.load(std::memory_order_acquire)
          ? GemmA::Packed(packed_w_)
          : GemmA::Raw(out_channels_, ckk, weight_.value.data());

  const Schedule schedule = PickSchedule(batch, out_channels_, ohw, ckk,
                                         training, GemmParallelTiles);
  const bool gemm_parallel = schedule == Schedule::kGemmParallel;

  // The GEMM packs its B panels straight from a view of the image (see
  // tensor/conv_direct.h): the input itself when pad == 0, else a
  // per-thread zero-bordered copy. The border is zeroed once — interior
  // copies never touch it, so the batch loop reuses the buffer.
  auto run_range = [&](int64_t begin, int64_t end) {
    ScratchScope scope;
    const int64_t pelems = PaddedImageElems(in_channels_, h, w, pad_);
    float* pbuf = pelems > 0 ? scope.Alloc(pelems) : nullptr;
    if (pbuf != nullptr) ZeroImageBorder(pbuf, in_channels_, h, w, pad_);
    ConvImageView img;
    img.channels = in_channels_;
    img.height = h;
    img.width = w;
    img.kernel = kernel_;
    img.pad = pad_;
    img.stride = stride_;
    for (int64_t b = begin; b < end; ++b) {
      const float* in_b = in + b * in_channels_ * h * w;
      if (pbuf != nullptr) {
        CopyImageInterior(in_b, in_channels_, h, w, pad_, pbuf);
        img.padded = pbuf;
      } else {
        img.padded = in_b;
      }
      Gemm(weights, GemmB::Conv(img), out + b * out_channels_ * ohw, ep,
           gemm_parallel);
    }
  };
  RunSchedule(schedule, batch, run_range);

  if (training) {
    cached_input_ = input;
    cached_h_ = h;
    cached_w_ = w;
  }
  return output;
}

// The int8 serving forward: activations are quantized per-tensor (static
// calibrated scale when present, else a dynamic max-abs pass) with the
// vectorized quantizer, once per input byte, into the image view the GEMM
// packs from, and multiplied against the pre-packed int8 weight panels.
// The GEMM's output pass applies scale_act * wscale[channel]
// dequantization, bias, and the fused ReLU, so no f32 weight or separate
// dequant sweep exists anywhere on this path.
Tensor Conv2d::ForwardInt8(const Tensor& input, bool fuse_relu) {
  POE_CHECK_EQ(input.ndim(), 4);
  POE_CHECK_EQ(input.dim(1), in_channels_);
  const int64_t batch = input.dim(0);
  const int64_t h = input.dim(2);
  const int64_t w = input.dim(3);
  const int64_t out_h = ConvOutSize(h, kernel_, pad_, stride_);
  const int64_t out_w = ConvOutSize(w, kernel_, pad_, stride_);
  POE_CHECK_GT(out_h, 0);
  POE_CHECK_GT(out_w, 0);
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t ohw = out_h * out_w;
  const int64_t chw = in_channels_ * h * w;

  Tensor output({batch, out_channels_, out_h, out_w});
  const float* in = input.data();
  float* out = output.data();

  const float act_scale =
      act_scale_ > 0.0f ? act_scale_ : SymmetricScaleS8(in, input.numel());
  const float inv_scale = 1.0f / act_scale;

  GemmS8Epilogue ep;
  ep.scale = act_scale;
  ep.row_scale = wscales_.data();
  ep.row_bias = has_bias_ ? bias_.value.data() : nullptr;
  ep.relu = fuse_relu;

  const Schedule schedule = PickSchedule(batch, out_channels_, ohw, ckk,
                                         /*training=*/false,
                                         GemmS8ParallelTiles);
  const bool gemm_parallel = schedule == Schedule::kGemmParallel;

  // pad == 0 quantizes the whole image straight into the view's buffer;
  // pad > 0 quantizes once into a flat scratch and row-copies the bytes
  // into the zero-bordered interior (a memcpy, not a second rounding).
  auto run_range = [&](int64_t begin, int64_t end) {
    ScratchScope scope;
    const int64_t pelems = PaddedImageElems(in_channels_, h, w, pad_);
    int8_t* q_pad = AllocS8(scope, pad_ > 0 ? pelems : chw);
    int8_t* q_tmp = pad_ > 0 ? AllocS8(scope, chw) : nullptr;
    if (pad_ > 0) ZeroImageBorder(q_pad, in_channels_, h, w, pad_);
    ConvImageViewS8 img;
    img.padded = q_pad;
    img.channels = in_channels_;
    img.height = h;
    img.width = w;
    img.kernel = kernel_;
    img.pad = pad_;
    img.stride = stride_;
    for (int64_t b = begin; b < end; ++b) {
      float* out_b = out + b * out_channels_ * ohw;
      if (pad_ > 0) {
        QuantizeBufferS8(in + b * chw, chw, inv_scale, q_tmp);
        CopyImageInterior(q_tmp, in_channels_, h, w, pad_, q_pad);
      } else {
        QuantizeBufferS8(in + b * chw, chw, inv_scale, q_pad);
      }
      GemmS8(GemmS8A::Packed(qweight_), GemmS8B::Conv(img), out_b, ep,
             gemm_parallel);
    }
  };
  RunSchedule(schedule, batch, run_range);
  return output;
}

void Conv2d::PrepareInt8Serving() {
  if (int8_serving_) return;
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  // Per-output-channel symmetric max-abs quantization of the weight
  // matrix (rows are output channels in the im2col GEMM layout).
  wscales_.resize(out_channels_);
  std::vector<int8_t> q(static_cast<size_t>(out_channels_ * ckk));
  const float* wp = weight_.value.data();
  for (int64_t oc = 0; oc < out_channels_; ++oc) {
    const float* row = wp + oc * ckk;
    wscales_[oc] = SymmetricScaleS8(row, ckk);
    QuantizeBufferS8(row, ckk, 1.0f / wscales_[oc], q.data() + oc * ckk);
  }
  FinishInt8Setup(q.data());
}

void Conv2d::FinishInt8Setup(const int8_t* values) {
  // Serialized against Prepack: pool copies share master modules, so a
  // conversion through one copy must not race another copy's prepacking
  // of the same layer.
  std::lock_guard<std::mutex> lock(prepack_mu_);
  // Pack once into the kernel layout; only the packed form stays resident
  // (persistence exports the portable row-major form via Unpack).
  qweight_ = PackedS8Weights::Pack(out_channels_,
                                   in_channels_ * kernel_ * kernel_, values);
  // Dequant-free serving: release the f32 weight storage for good, along
  // with any now-stale f32 packed panels.
  f32_packed_.store(false, std::memory_order_release);
  packed_w_ = PackedAWeights();
  weight_.value = Tensor();
  weight_.grad = Tensor();
  weight_.trainable = false;
  int8_serving_ = true;
}

void Conv2d::Prepack(ServingPrecision precision) {
  std::lock_guard<std::mutex> lock(prepack_mu_);
  // Packs the form the layer CURRENTLY serves (see Linear::Prepack for
  // the stale-copy rationale); int8 panels were built at conversion.
  POE_CHECK(precision != ServingPrecision::kInt8 || int8_serving_)
      << "Prepack(kInt8) requires PrepareInt8Serving first";
  if (int8_serving_) return;
  if (f32_packed_.load(std::memory_order_relaxed)) return;
  packed_w_ = PackedAWeights::Pack(out_channels_,
                                   in_channels_ * kernel_ * kernel_,
                                   weight_.value.data());
  f32_packed_.store(true, std::memory_order_release);
}

int64_t Conv2d::PackedWeightBytes() {
  return f32_packed_.load(std::memory_order_acquire) ? packed_w_.nbytes()
                                                     : 0;
}

void Conv2d::BeginActivationCalibration() {
  observe_act_ = true;
  observed_act_max_ = 0.0f;
}

void Conv2d::FinishActivationCalibration() {
  observe_act_ = false;
  // A zero observation (no forwards ran, or the sample batch never lit
  // this layer up) keeps the scale at 0 = dynamic: freezing a guess
  // would saturate real activations forever (and be persisted).
  act_scale_ = observed_act_max_ > 0.0f ? observed_act_max_ / 127.0f : 0.0f;
}

Result<Int8WeightState> Conv2d::ExportInt8State() const {
  if (!int8_serving_) {
    return Status::FailedPrecondition(
        "Conv2d has no int8 state to export (still serving f32)");
  }
  Int8WeightState state;
  state.rows = out_channels_;
  state.cols = in_channels_ * kernel_ * kernel_;
  state.values.resize(static_cast<size_t>(state.rows * state.cols));
  qweight_.Unpack(state.values.data());  // portable row-major form
  state.scales = wscales_;
  state.act_scale = act_scale_;
  return state;
}

Status Conv2d::AdoptInt8State(Int8WeightState state) {
  if (int8_serving_) {
    return Status::FailedPrecondition("Conv2d already serves int8");
  }
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  if (state.rows != out_channels_ || state.cols != ckk ||
      static_cast<int64_t>(state.values.size()) != out_channels_ * ckk ||
      static_cast<int64_t>(state.scales.size()) != out_channels_) {
    return Status::Corruption("int8 state shape mismatch for Conv2d");
  }
  wscales_ = std::move(state.scales);
  act_scale_ = state.act_scale;
  FinishInt8Setup(state.values.data());
  return Status::OK();
}

int64_t Conv2d::Int8WeightBytes() const {
  if (!int8_serving_) return 0;
  return qweight_.nbytes() +
         static_cast<int64_t>(wscales_.size() * sizeof(float));
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  POE_CHECK(!int8_serving_) << "int8-serving Conv2d cannot train";
  POE_CHECK(cached_input_.defined()) << "Backward before training Forward";
  const int64_t batch = cached_input_.dim(0);
  const int64_t h = cached_h_;
  const int64_t w = cached_w_;
  const int64_t out_h = ConvOutSize(h, kernel_, pad_, stride_);
  const int64_t out_w = ConvOutSize(w, kernel_, pad_, stride_);
  const int64_t ckk = in_channels_ * kernel_ * kernel_;
  const int64_t ohw = out_h * out_w;
  POE_CHECK_EQ(grad_output.dim(0), batch);
  POE_CHECK_EQ(grad_output.dim(1), out_channels_);

  Tensor grad_input = Tensor::Zeros(cached_input_.shape());
  const float* wp = weight_.value.data();
  const float* in = cached_input_.data();
  const float* gout = grad_output.data();
  float* gin = grad_input.data();

  // Fixed partition: chunk c covers items [c*batch/chunks,
  // (c+1)*batch/chunks) and fills its own dW/db partial; the partials are
  // then added to the gradients in chunk-index order, so the sums are
  // bitwise identical at every thread count.
  const int64_t chunks = std::min(batch, kBackwardChunks);
  const int64_t wsize = out_channels_ * ckk;
  const int64_t bsize = has_bias_ ? out_channels_ : 0;
  ScratchScope partial_scope;
  float* partials = partial_scope.Alloc(chunks * (wsize + bsize));
  GemmEpilogue accumulate;
  accumulate.accumulate = true;
  ParallelFor(
      chunks,
      [&](int64_t c_begin, int64_t c_end) {
        ScratchScope scope;
        float* cols = scope.Alloc(ckk * ohw);
        float* dcols = scope.Alloc(ckk * ohw);
        for (int64_t c = c_begin; c < c_end; ++c) {
          float* dw_local = partials + c * (wsize + bsize);
          float* db_local = dw_local + wsize;
          std::fill(dw_local, dw_local + wsize + bsize, 0.0f);
          for (int64_t b = c * batch / chunks; b < (c + 1) * batch / chunks;
               ++b) {
            const float* gout_b = gout + b * out_channels_ * ohw;
            // Recompute the unfolding (cheaper than caching it per batch).
            Im2Col(in + b * in_channels_ * h * w, in_channels_, h, w,
                   kernel_, kernel_, pad_, stride_, cols);
            // dW += dY_b (out_c x ohw) * cols_b^T (ohw x ckk).
            Gemm(GemmA::Raw(out_channels_, ohw, gout_b),
                 GemmB::Raw(ohw, ckk, cols, /*trans=*/true), dw_local,
                 accumulate, /*parallel=*/false);
            // dcols = W^T (ckk x out_c) * dY_b (out_c x ohw).
            Gemm(GemmA::Raw(ckk, out_channels_, wp, /*trans=*/true),
                 GemmB::Raw(out_channels_, ohw, gout_b), dcols,
                 GemmEpilogue{}, /*parallel=*/false);
            Col2Im(dcols, in_channels_, h, w, kernel_, kernel_, pad_,
                   stride_, gin + b * in_channels_ * h * w);
            for (int64_t oc = 0; oc < bsize; ++oc) {
              const float* row = gout_b + oc * ohw;
              float acc = 0.0f;
              for (int64_t i = 0; i < ohw; ++i) acc += row[i];
              db_local[oc] += acc;
            }
          }
        }
      },
      /*min_chunk=*/1);

  float* dw = weight_.grad.data();
  float* db = has_bias_ ? bias_.grad.data() : nullptr;
  for (int64_t c = 0; c < chunks; ++c) {
    const float* dw_local = partials + c * (wsize + bsize);
    for (int64_t i = 0; i < wsize; ++i) dw[i] += dw_local[i];
    for (int64_t oc = 0; oc < bsize; ++oc) db[oc] += dw_local[wsize + oc];
  }
  return grad_input;
}

void Conv2d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (has_bias_) out->push_back(&bias_);
}

}  // namespace poe
