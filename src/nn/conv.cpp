#include <cmath>
#include <cstring>
#include <sstream>

#include "nn/layers.hpp"
#include "nn/param_arena.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/direct_conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace ds {

namespace {

// Dispatch accounting: always-on metrics, plus (when tracing) a Chrome
// counter track sampling the cumulative conv flops and lowering traffic so
// the im2col-vs-direct split shows up on the trace timeline.
struct ConvMetrics {
  obs::Counter& calls = obs::metrics().counter(obs::names::kConvCalls);
  obs::AccumDouble& flops = obs::metrics().accum(obs::names::kConvFlops);
  obs::Counter& im2col = obs::metrics().counter(obs::names::kConvIm2colCalls);
  obs::Counter& direct = obs::metrics().counter(obs::names::kConvDirectCalls);
};

void count_dispatch(ConvAlgo algo, double flops) {
  static ConvMetrics cm;
  cm.calls.add();
  cm.flops.add(flops);
  switch (algo) {
    case ConvAlgo::kIm2col:
      cm.im2col.add();
      break;
    case ConvAlgo::kDirect:
      cm.direct.add();
      break;
    case ConvAlgo::kAuto:
      break;  // resolve_conv_algo never returns kAuto
  }
  if (obs::tracing_enabled()) {
    obs::counter(obs::names::kConvFlops, cm.flops.value());
    obs::counter(obs::names::kIm2colBytes,
                 obs::metrics().accum(obs::names::kIm2colBytes).value());
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad)
    : in_c_(in_channels),
      out_c_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  DS_CHECK(in_c_ > 0 && out_c_ > 0 && kernel_ > 0 && stride_ > 0,
           "conv dims must be positive");
}

std::string Conv2D::name() const {
  std::ostringstream os;
  os << "conv " << in_c_ << "->" << out_c_ << " k" << kernel_ << " s"
     << stride_ << " p" << pad_;
  return os.str();
}

ConvGeom Conv2D::geom_for(const Shape& input) const {
  DS_CHECK(input.rank() == 4, "conv input must be NCHW, got " << input.str());
  DS_CHECK(input.dim(1) == in_c_,
           name() << ": input has " << input.dim(1) << " channels");
  ConvGeom g;
  g.channels = in_c_;
  g.height = input.dim(2);
  g.width = input.dim(3);
  g.kernel = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  DS_CHECK(g.height + 2 * g.pad >= g.kernel && g.width + 2 * g.pad >= g.kernel,
           name() << ": kernel larger than padded input " << input.str());
  return g;
}

ConvAlgo Conv2D::resolved_algo(const Shape& input) const {
  return resolve_conv_algo(geom_for(input), out_c_);
}

Shape Conv2D::output_shape(const Shape& input) const {
  const ConvGeom g = geom_for(input);
  return Shape{input.dim(0), out_c_, g.out_height(), g.out_width()};
}

std::size_t Conv2D::param_count() const {
  return out_c_ * in_c_ * kernel_ * kernel_ + out_c_;
}

void Conv2D::init_params(Rng& rng) {
  // Xavier/Glorot uniform over fan_in + fan_out (paper Algorithm 1 line 2).
  const std::size_t fan_in = in_c_ * kernel_ * kernel_;
  const std::size_t fan_out = out_c_ * kernel_ * kernel_;
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  const std::size_t w = out_c_ * in_c_ * kernel_ * kernel_;
  for (std::size_t i = 0; i < w; ++i) {
    params_[i] = static_cast<float>(rng.uniform(-limit, limit));
  }
  for (std::size_t i = w; i < params_.size(); ++i) params_[i] = 0.0f;
}

// im2col lowering path. col_ws_ ends up holding this input's column
// matrix, which backward_lowered reuses for the dW GEMM.
void Conv2D::forward_lowered(const ConvGeom& g, const Tensor& x, Tensor& y) {
  const std::size_t batch = x.dim(0);
  const std::size_t rows = g.col_rows();
  const std::size_t cols = g.col_cols();
  const std::size_t bc = batch * cols;
  col_ws_.ensure(rows * bc);
  AlignedBuffer& out_ws = scratch().kernel;  // [out_c × batch·cols]
  out_ws.ensure(out_c_ * bc);

  const float* weights = params_.data();  // out_c × rows
  const float* bias = params_.data() + out_c_ * rows;
  const std::size_t in_plane = in_c_ * g.height * g.width;
  const std::size_t out_plane = out_c_ * cols;

  // Lower the whole batch into one [rows × batch·cols] column matrix
  // (image n owns columns [n·cols, (n+1)·cols)) …
  for (std::size_t n = 0; n < batch; ++n) {
    im2col(g, x.data() + n * in_plane, col_ws_.data() + n * cols, bc);
  }
  col_valid_ = true;
  // … so the layer is one GEMM, [out_c × rows] · [rows × batch·cols],
  // with the per-channel bias fused into the C write-back epilogue.
  GemmEpilogue ep;
  ep.row_bias = bias;
  gemm(Transpose::kNo, Transpose::kNo, out_c_, bc, rows, 1.0f, weights, rows,
       col_ws_.data(), bc, 0.0f, out_ws.data(), bc, ep);
  // Un-batch [out_c × batch·cols] into the NCHW output.
  for (std::size_t n = 0; n < batch; ++n) {
    float* yn = y.data() + n * out_plane;
    for (std::size_t f = 0; f < out_c_; ++f) {
      std::memcpy(yn + f * cols, out_ws.data() + f * bc + n * cols,
                  cols * sizeof(float));
    }
  }
}

// Inference forward, one image at a time: the scratch holds one image's
// column matrix or blocked layout instead of the whole batch's, and the
// GEMM writes each image's NCHW output directly. A 1×1, stride-1,
// unpadded conv needs no lowering at all: the image's plane already is its
// column matrix. Per output element this is the reduction a batch-1 call
// runs, which equals the batched one (serve_parity_test).
void Conv2D::forward_images(const ConvGeom& g, ConvAlgo algo, const Tensor& x,
                            Tensor& y) {
  const std::size_t rows = g.col_rows();
  const std::size_t cols = g.col_cols();
  const std::size_t in_plane = in_c_ * g.height * g.width;
  const std::size_t out_plane = out_c_ * cols;
  const float* weights = params_.data();  // out_c × rows
  const float* bias = params_.data() + out_c_ * rows;
  const bool direct = algo == ConvAlgo::kDirect;
  const bool pointwise = kernel_ == 1 && stride_ == 1 && pad_ == 0;
  const BlockedLayout bl = BlockedLayout::for_conv(g);
  AlignedBuffer& ws = scratch().kernel;
  ws.ensure(direct ? bl.image_floats() : pointwise ? 0 : rows * cols);
  col_valid_ = false;
  GemmEpilogue ep;
  ep.row_bias = bias;
  for (std::size_t n = 0; n < x.dim(0); ++n) {
    const float* xn = x.data() + n * in_plane;
    float* yn = y.data() + n * out_plane;
    if (direct) {
      nchw_to_blocked(bl, 1, xn, ws.data());
      direct_conv3x3_forward(bl, 1, out_c_, ws.data(), weights, bias, yn);
      continue;
    }
    const float* col = xn;
    if (!pointwise) {
      im2col(g, xn, ws.data(), cols);
      col = ws.data();
    }
    gemm(Transpose::kNo, Transpose::kNo, out_c_, cols, rows, 1.0f, weights,
         rows, col, cols, 0.0f, yn, cols, ep);
  }
}

// Direct forward over the blocked activation layout.
void Conv2D::forward_direct(const ConvGeom& g, const Tensor& x, Tensor& y) {
  const std::size_t batch = x.dim(0);
  const BlockedLayout bl = BlockedLayout::for_conv(g);
  const std::size_t ximg = batch * bl.image_floats();
  const float* weights = params_.data();
  const float* bias = params_.data() + out_c_ * in_c_ * 9;

  AlignedBuffer& ws = scratch().kernel;
  ws.ensure(ximg);
  nchw_to_blocked(bl, batch, x.data(), ws.data());
  direct_conv3x3_forward(bl, batch, out_c_, ws.data(), weights, bias,
                         y.data());
}

void Conv2D::forward_impl(const Tensor& x, Tensor& y, bool train) {
  const ConvGeom g = geom_for(x.shape());
  const ConvAlgo algo = resolve_conv_algo(g, out_c_);
  count_dispatch(algo,
                 gemm_flops(out_c_, x.dim(0) * g.col_cols(), g.col_rows()));
  if (!train) {
    forward_images(g, algo, x, y);
    return;
  }
  switch (algo) {
    case ConvAlgo::kIm2col:
      forward_lowered(g, x, y);
      break;
    case ConvAlgo::kDirect:
      col_valid_ = false;
      forward_direct(g, x, y);
      break;
    case ConvAlgo::kAuto:
      DS_CHECK(false, "resolve_conv_algo returned kAuto");
  }
}

// Backward through the 3×3 direct kernels: dW/db from the blocked
// dY × X plane products, dX as a full correlation of blocked dY with the
// 180°-rotated, [C][F]-transposed weights — bitwise-deterministic like the
// forward (whole-image / whole-filter sharding only).
void Conv2D::backward_direct(const ConvGeom& g, const Tensor& x,
                             const Tensor& dy, Tensor* dx) {
  const std::size_t batch = x.dim(0);
  const BlockedLayout xl = BlockedLayout::for_conv(g);
  BlockedLayout dyl = xl;
  dyl.channels = out_c_;
  const std::size_t ximg = batch * xl.image_floats();
  const std::size_t dyimg = batch * dyl.image_floats();
  const std::size_t wfloats = out_c_ * in_c_ * 9;

  const float* weights = params_.data();
  float* dweights = grads_.data();
  float* dbias = grads_.data() + wfloats;

  AlignedBuffer& ws = scratch().kernel;
  ws.ensure(ximg + dyimg + (dx ? wfloats : 0));
  float* xb = ws.data();
  float* dyb = ws.data() + ximg;
  float* wrot = ws.data() + ximg + dyimg;

  nchw_to_blocked(xl, batch, x.data(), xb);
  nchw_to_blocked(dyl, batch, dy.data(), dyb);
  direct_conv3x3_backward_weights(xl, batch, out_c_, xb, dyb, dweights,
                                  dbias);
  if (!dx) return;
  // dX[c] = Σ_f dY[f] ⋆ rot180(W[f][c]) — the forward kernel with the
  // roles of filters/channels swapped; overwrites dx completely.
  rotate_conv3x3_weights(out_c_, in_c_, weights, wrot);
  direct_conv3x3_forward(dyl, batch, in_c_, dyb, wrot, nullptr, dx->data());
}

void Conv2D::backward_lowered(const ConvGeom& g, const Tensor& x,
                              const Tensor& dy, Tensor* dx) {
  const std::size_t batch = x.dim(0);
  const std::size_t rows = g.col_rows();
  const std::size_t cols = g.col_cols();
  const std::size_t bc = batch * cols;
  col_ws_.ensure(rows * bc);
  // Scratch: the batched dY [out_c × batch·cols], then, for dX, the column
  // gradient [rows × batch·cols].
  AlignedBuffer& ws = scratch().kernel;
  ws.ensure((out_c_ + (dx ? rows : 0)) * bc);
  float* dyb = ws.data();
  float* dcol = ws.data() + out_c_ * bc;

  const float* weights = params_.data();
  float* dweights = grads_.data();  // out_c × rows
  float* dbias = grads_.data() + out_c_ * rows;
  const std::size_t in_plane = in_c_ * g.height * g.width;
  const std::size_t out_plane = out_c_ * cols;

  // Column matrix of the input: the last forward was a training one of
  // this x's shape (Layer checks it), so unless that forward ran another
  // kernel it lowered exactly this x; reuse the grow-only scratch instead of
  // re-running im2col.
  const bool reuse = col_valid_;
  for (std::size_t n = 0; n < batch; ++n) {
    if (!reuse) {
      im2col(g, x.data() + n * in_plane, col_ws_.data() + n * cols, bc);
    }
    // Batched layout of dY, mirroring the forward lowering.
    const float* dyn = dy.data() + n * out_plane;
    for (std::size_t f = 0; f < out_c_; ++f) {
      std::memcpy(dyb + f * bc + n * cols, dyn + f * cols,
                  cols * sizeof(float));
    }
  }
  col_valid_ = true;
  // dW += dY_b · col_bᵀ : [out_c × batch·cols] · [batch·cols × rows].
  gemm(Transpose::kNo, Transpose::kYes, out_c_, rows, bc, 1.0f, dyb, bc,
       col_ws_.data(), bc, 1.0f, dweights, rows);
  // db += row sums of batched dY.
  add_row_sums(dyb, out_c_, bc, dbias);
  if (!dx) return;
  // dcol_b = Wᵀ · dY_b : [rows × out_c] · [out_c × batch·cols].
  gemm(Transpose::kYes, Transpose::kNo, rows, bc, out_c_, 1.0f, weights, rows,
       dyb, bc, 0.0f, dcol, bc);
  dx->zero();
  for (std::size_t n = 0; n < batch; ++n) {
    col2im(g, dcol + n * cols, bc, dx->data() + n * in_plane);
  }
}

void Conv2D::backward_into(const Tensor& x, const Tensor& dy, Tensor* dx) {
  const ConvGeom g = geom_for(x.shape());
  const ConvAlgo algo = resolve_conv_algo(g, out_c_);
  if (algo == ConvAlgo::kDirect) {
    backward_direct(g, x, dy, dx);
  } else {
    backward_lowered(g, x, dy, dx);
  }
}

void Conv2D::backward_impl(const Tensor& x, const Tensor& /*y*/,
                           const Tensor& dy, Tensor& dx) {
  backward_into(x, dy, &dx);
}

void Conv2D::backward_params_impl(const Tensor& x, const Tensor& /*y*/,
                                  const Tensor& dy, Tensor& /*scratch*/) {
  backward_into(x, dy, nullptr);
}

double Conv2D::flops_per_sample(const Shape& input) const {
  const ConvGeom g = geom_for(input);
  const double fwd = gemm_flops(out_c_, g.col_cols(), g.col_rows());
  // backward: dW GEMM + dX GEMM, each the same size as forward.
  return 3.0 * fwd;
}

}  // namespace ds
